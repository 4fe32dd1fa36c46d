//! Branch-and-bound bin-packing feasibility: can `n` jobs fit into `m` bins
//! of capacity `C`?

use pcmax_core::{Error, Instance, Result, Time};

/// Search nodes between two polls of a gated search's gate: about a
/// millisecond of search in a release build.
const GATE_NODES: u64 = 1024;

/// Answer of one feasibility probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackingVerdict {
    /// A packing exists; `assignment[p]` is the bin of the `p`-th job in
    /// decreasing-time order.
    Feasible(Vec<usize>),
    /// Proven impossible.
    Infeasible,
    /// The node budget ran out before a proof either way.
    BudgetExhausted,
}

/// The reusable oracle: holds the decreasing-order job times and a node
/// budget shared across probes (so a whole bisection has one budget, like a
/// single MIP solve has one time limit).
#[derive(Debug, Clone)]
pub struct FeasibilityOracle {
    /// Job times in non-increasing order.
    times: Vec<Time>,
    /// Original job ids in the same order.
    ids: Vec<usize>,
    /// `times[p..]` suffix sums (`suffix[p] = Σ times[p..]`).
    suffix: Vec<Time>,
    machines: usize,
    /// Remaining search nodes.
    budget: u64,
    /// Nodes expanded so far (for statistics).
    nodes: u64,
    /// The error a gate stopped the search with.
    halted: Option<Error>,
}

impl FeasibilityOracle {
    /// Builds an oracle for `inst` with a total node budget.
    pub fn new(inst: &Instance, budget: u64) -> Self {
        let ids = inst.jobs_by_decreasing_time();
        let times: Vec<Time> = ids.iter().map(|&j| inst.time(j)).collect();
        let mut suffix = vec![0; times.len() + 1];
        for p in (0..times.len()).rev() {
            suffix[p] = suffix[p + 1] + times[p];
        }
        Self {
            times,
            ids,
            suffix,
            machines: inst.machines(),
            budget,
            nodes: 0,
            halted: None,
        }
    }

    /// Nodes expanded so far.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Original job ids in decreasing-time order (to translate assignments).
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Quick Martello–Toth-style infeasibility tests, O(n).
    fn quick_infeasible(&self, cap: Time) -> bool {
        let n = self.times.len();
        if n == 0 {
            return false;
        }
        // Longest job must fit at all.
        if self.times[0] > cap {
            return true;
        }
        // Total work must fit in total capacity.
        if self.suffix[0] > cap * self.machines as Time {
            return true;
        }
        // Jobs strictly larger than C/2 pairwise conflict: each needs its own
        // bin, and jobs of exactly C/2 can share a bin with at most one other
        // such job.
        let big = self.times.iter().filter(|&&t| 2 * t > cap).count();
        if big > self.machines {
            return true;
        }
        // Refinement: bins holding a > C/2 job have < C/2 residual, so jobs
        // of exactly C/2 cannot join them in pairs; count (big + ⌈half/2⌉).
        let half = self.times.iter().filter(|&&t| 2 * t == cap).count();
        if big + half.div_ceil(2) > self.machines {
            return true;
        }
        false
    }

    /// Decides whether the jobs fit into `machines` bins of capacity `cap`.
    pub fn feasible(&mut self, cap: Time) -> PackingVerdict {
        // An ungated search never halts: it ends in a verdict.
        self.feasible_gated(cap, &mut || Ok(()))
            .unwrap_or(PackingVerdict::BudgetExhausted)
    }

    /// [`feasible`](Self::feasible), polling `gate` before the first search
    /// node and every [`GATE_NODES`] nodes after it. The first `Err` the
    /// gate returns stops the search, and is returned.
    pub(crate) fn feasible_gated(
        &mut self,
        cap: Time,
        gate: &mut dyn FnMut() -> Result<()>,
    ) -> Result<PackingVerdict> {
        if self.times.is_empty() {
            return Ok(PackingVerdict::Feasible(Vec::new()));
        }
        if self.quick_infeasible(cap) {
            return Ok(PackingVerdict::Infeasible);
        }
        let mut loads = vec![0; self.machines];
        let mut assignment = vec![usize::MAX; self.times.len()];
        let verdict = self.dfs(0, cap, &mut loads, &mut assignment, usize::MAX, gate);
        if let Some(err) = self.halted.take() {
            return Err(err);
        }
        Ok(match verdict {
            Some(true) => PackingVerdict::Feasible(assignment),
            Some(false) => PackingVerdict::Infeasible,
            None => PackingVerdict::BudgetExhausted,
        })
    }

    /// DFS over jobs in decreasing order. `prev_bin` is the bin that the
    /// previous job took if it had the same processing time (equal jobs are
    /// interchangeable, so the later one never goes to an earlier bin).
    /// Returns `None` on budget exhaustion, and when `gate` halts the
    /// search, which then empties the budget.
    fn dfs(
        &mut self,
        p: usize,
        cap: Time,
        loads: &mut [Time],
        assignment: &mut [usize],
        prev_equal_bin: usize,
        gate: &mut dyn FnMut() -> Result<()>,
    ) -> Option<bool> {
        if p == self.times.len() {
            return Some(true);
        }
        if self.nodes.is_multiple_of(GATE_NODES) && self.budget > 0 {
            if let Err(err) = gate() {
                self.halted = Some(err);
                self.budget = 0;
            }
        }
        if self.budget == 0 {
            return None;
        }
        self.budget -= 1;
        self.nodes += 1;

        // Free-capacity bound with wasted space: a bin whose residual is
        // smaller than the smallest remaining job can never receive another
        // job, so its space does not count.
        // `p < times.len()` here, so the list is non-empty; an empty list
        // would mean every job is already packed.
        let Some(&t_min) = self.times.last() else {
            return Some(true);
        };
        let free: Time = loads.iter().map(|&w| cap - w).filter(|&r| r >= t_min).sum();
        if self.suffix[p] > free {
            return Some(false);
        }

        let t = self.times[p];
        let start = if prev_equal_bin != usize::MAX {
            prev_equal_bin
        } else {
            0
        };

        // Perfect-fit dominance: the largest remaining job may always take a
        // bin it fills exactly.
        if let Some(bin) = (start..self.machines).find(|&i| loads[i] + t == cap) {
            loads[bin] += t;
            assignment[p] = bin;
            let next_equal = self.next_equal_bin(p, bin);
            let r = self.dfs(p + 1, cap, loads, assignment, next_equal, gate);
            loads[bin] -= t;
            if r != Some(false) {
                return r; // success or budget exhaustion propagates
            }
            assignment[p] = usize::MAX;
            return Some(false);
        }

        // Candidate bins: fits, first of each distinct load (equal bins are
        // interchangeable), explored fullest-first (best-fit-decreasing
        // order reaches feasible packings sooner).
        let mut candidates: Vec<usize> = (start..self.machines)
            .filter(|&bin| {
                let w = loads[bin];
                w + t <= cap && !loads[start..bin].contains(&w)
            })
            .collect();
        candidates.sort_by(|&a, &b| loads[b].cmp(&loads[a]));
        for bin in candidates {
            loads[bin] += t;
            assignment[p] = bin;
            let next_equal = self.next_equal_bin(p, bin);
            match self.dfs(p + 1, cap, loads, assignment, next_equal, gate) {
                Some(false) => {}
                other => {
                    loads[bin] -= t;
                    if other == Some(true) {
                        return Some(true);
                    }
                    return None;
                }
            }
            loads[bin] -= t;
            assignment[p] = usize::MAX;
        }
        Some(false)
    }

    /// Bin ordering hint for the next job: if it has the same processing
    /// time as job `p`, it must not take a bin with index `< bin`.
    fn next_equal_bin(&self, p: usize, bin: usize) -> usize {
        if p + 1 < self.times.len() && self.times[p + 1] == self.times[p] {
            bin
        } else {
            usize::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::Instance;

    fn oracle(times: Vec<u64>, m: usize) -> FeasibilityOracle {
        FeasibilityOracle::new(&Instance::new(times, m).unwrap(), 1_000_000)
    }

    fn assert_packing_valid(o: &FeasibilityOracle, cap: u64, verdict: &PackingVerdict) {
        if let PackingVerdict::Feasible(assignment) = verdict {
            let mut loads = vec![0u64; o.machines];
            for (p, &bin) in assignment.iter().enumerate() {
                loads[bin] += o.times[p];
            }
            assert!(loads.iter().all(|&w| w <= cap), "overfull bin: {loads:?}");
        }
    }

    #[test]
    fn trivially_feasible() {
        let mut o = oracle(vec![3, 3, 3], 3);
        let v = o.feasible(3);
        assert!(matches!(v, PackingVerdict::Feasible(_)));
        assert_packing_valid(&o, 3, &v);
    }

    #[test]
    fn infeasible_when_longest_exceeds_cap() {
        let mut o = oracle(vec![10, 1], 2);
        assert_eq!(o.feasible(9), PackingVerdict::Infeasible);
    }

    #[test]
    fn infeasible_by_area() {
        let mut o = oracle(vec![5, 5, 5], 2);
        assert_eq!(o.feasible(6), PackingVerdict::Infeasible);
    }

    #[test]
    fn infeasible_by_big_item_count() {
        // Three jobs > C/2 into two bins.
        let mut o = oracle(vec![6, 6, 6], 2);
        assert_eq!(o.feasible(10), PackingVerdict::Infeasible);
        assert_eq!(o.nodes(), 0, "rejected by quick tests, no search");
    }

    #[test]
    fn perfect_partition_found() {
        // {4,5,6,7,8} into 2 bins of 15: {7,8} and {4,5,6}.
        let mut o = oracle(vec![4, 5, 6, 7, 8], 2);
        let v = o.feasible(15);
        assert!(matches!(v, PackingVerdict::Feasible(_)));
        assert_packing_valid(&o, 15, &v);
    }

    #[test]
    fn tight_infeasible_partition() {
        // Same set into 2 bins of 14 (< 15 = sum/2) is impossible.
        let mut o = oracle(vec![4, 5, 6, 7, 8], 2);
        assert_eq!(o.feasible(14), PackingVerdict::Infeasible);
    }

    #[test]
    fn equal_jobs_symmetry_is_fast() {
        // 30 equal jobs into 10 bins: without the equal-item rule this
        // explodes; with it the search is linear-ish.
        let mut o = oracle(vec![7; 30], 10);
        let v = o.feasible(21);
        assert!(matches!(v, PackingVerdict::Feasible(_)));
        assert!(o.nodes() < 1000, "nodes = {}", o.nodes());
    }

    #[test]
    fn budget_exhaustion_reports() {
        // A hard infeasible instance with a 1-node budget.
        let mut o = FeasibilityOracle::new(
            &Instance::new(vec![9, 8, 7, 7, 6, 5, 5, 4, 3], 3).unwrap(),
            1,
        );
        // Capacity chosen so quick tests do not fire but search is needed:
        // sum = 54, 3 bins of 18 — feasibility requires search.
        let v = o.feasible(18);
        assert!(matches!(
            v,
            PackingVerdict::BudgetExhausted | PackingVerdict::Feasible(_)
        ));
    }

    #[test]
    fn empty_instance_feasible() {
        let mut o = oracle(vec![], 2);
        assert_eq!(o.feasible(1), PackingVerdict::Feasible(vec![]));
    }

    #[test]
    fn exhaustive_against_brute_force() {
        // All multisets of 6 jobs over {1,2,3} on 2 machines, all caps.
        fn brute(times: &[u64], m: usize, cap: u64) -> bool {
            fn rec(times: &[u64], loads: &mut Vec<u64>, cap: u64) -> bool {
                match times.split_first() {
                    None => true,
                    Some((&t, rest)) => {
                        for i in 0..loads.len() {
                            if loads[i] + t <= cap {
                                loads[i] += t;
                                if rec(rest, loads, cap) {
                                    loads[i] -= t;
                                    return true;
                                }
                                loads[i] -= t;
                            }
                        }
                        false
                    }
                }
            }
            rec(times, &mut vec![0; m], cap)
        }
        let vals = [1u64, 2, 3];
        for a in vals {
            for b in vals {
                for c in vals {
                    for d in vals {
                        let times = vec![a, b, c, d, 2, 3];
                        for cap in 3..=8u64 {
                            let mut o = oracle(times.clone(), 2);
                            let got = o.feasible(cap);
                            let want = brute(&times, 2, cap);
                            match (&got, want) {
                                (PackingVerdict::Feasible(_), true) => {
                                    assert_packing_valid(&o, cap, &got)
                                }
                                (PackingVerdict::Infeasible, false) => {}
                                _ => panic!("mismatch on {times:?} cap={cap}: {got:?} vs {want}"),
                            }
                        }
                    }
                }
            }
        }
    }
}

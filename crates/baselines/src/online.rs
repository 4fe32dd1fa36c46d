//! Online list scheduling over streaming arrivals.
//!
//! In the online model jobs arrive one at a time and each must be placed
//! irrevocably before the next is revealed — no sorting, no lookahead.
//! [`OnlineScheduler`] is the streaming core (it never sees an [`Instance`](pcmax_core::Instance),
//! only a sequence of `arrive` calls); [`LsOnline`] adapts it to the batch
//! [`Solver`] interface by replaying an instance's jobs in index order, which
//! makes the online/offline gap directly measurable with `pcmax compare`.
//!
//! Graham's bound applies verbatim: greedy placement is `(2 − 1/m)`-
//! competitive on identical machines, and the `m(m−1)` unit jobs + one job of
//! size `m` adversary (see `pcmax-workloads`) shows the bound is tight.

use crate::uniform::earliest_finish;
use pcmax_core::{
    Error, MachineId, Result, Schedule, SolveReport, SolveRequest, SolveStats, Solver, Time,
};
use std::time::Instant;

/// Streaming greedy scheduler: feed arrivals one at a time with
/// [`arrive`](OnlineScheduler::arrive); each is committed to the machine that
/// would finish it earliest (`argmin (load_i + t)/s_i`, lowest index on
/// ties — exactly Graham's LS rule when all speeds are 1).
///
/// ```
/// use pcmax_baselines::OnlineScheduler;
///
/// let mut online = OnlineScheduler::new(2).unwrap();
/// assert_eq!(online.arrive(3), 0);
/// assert_eq!(online.arrive(5), 1);
/// assert_eq!(online.arrive(2), 0); // load 3 < 5
/// assert_eq!(online.makespan(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineScheduler {
    speeds: Vec<Time>,
    loads: Vec<Time>,
    assignment: Vec<MachineId>,
}

impl OnlineScheduler {
    /// An online scheduler over `machines` identical machines.
    pub fn new(machines: usize) -> Result<Self> {
        Self::with_speeds(vec![1; machines])
    }

    /// An online scheduler over uniform machines with the given speeds.
    pub fn with_speeds(speeds: Vec<Time>) -> Result<Self> {
        if speeds.is_empty() {
            return Err(Error::NoMachines);
        }
        if let Some(machine) = speeds.iter().position(|&s| s == 0) {
            return Err(Error::BadModel(format!(
                "machine {machine} has zero speed; speeds must be >= 1"
            )));
        }
        let loads = vec![0; speeds.len()];
        Ok(Self {
            speeds,
            loads,
            assignment: Vec::new(),
        })
    }

    /// Irrevocably places the newly arrived job of size `t` and returns the
    /// chosen machine.
    pub fn arrive(&mut self, t: Time) -> MachineId {
        let mach = earliest_finish(&self.loads, &self.speeds, t);
        self.loads[mach] += t;
        self.assignment.push(mach);
        mach
    }

    /// Number of machines.
    #[inline]
    pub fn machines(&self) -> usize {
        self.speeds.len()
    }

    /// Number of jobs placed so far.
    #[inline]
    pub fn jobs(&self) -> usize {
        self.assignment.len()
    }

    /// Current machine loads (raw work, not divided by speed).
    #[inline]
    pub fn loads(&self) -> &[Time] {
        &self.loads
    }

    /// Machine chosen for each arrival, in arrival order.
    #[inline]
    pub fn assignment(&self) -> &[MachineId] {
        &self.assignment
    }

    /// Makespan of the placements so far: `max_i ⌈load_i / s_i⌉`.
    pub fn makespan(&self) -> Time {
        self.loads
            .iter()
            .zip(&self.speeds)
            .map(|(&load, &s)| load.div_ceil(s))
            .max()
            .unwrap_or(0)
    }

    /// Freezes the stream into a [`Schedule`] (jobs numbered in arrival
    /// order).
    pub fn into_schedule(self) -> Result<Schedule> {
        let machines = self.speeds.len();
        Schedule::from_assignment(self.assignment, machines)
    }
}

/// Batch adapter: replays an instance's jobs in index order through an
/// [`OnlineScheduler`], modelling a stream that reveals job `j` at step `j`.
///
/// On identical machines this is bit-identical to [`crate::Ls`]; it also
/// accepts uniform instances, where the greedy rule is speed-aware.
#[derive(Debug, Clone, Copy, Default)]
pub struct LsOnline;

impl Solver for LsOnline {
    fn solver_name(&self) -> &'static str {
        "LS-online"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        req.check_cancelled()?;
        let start = Instant::now();
        let inst = req.instance;
        let stream_span = req.trace_span("stream", inst.jobs() as u64);
        let mut online = OnlineScheduler::with_speeds(inst.speeds())?;
        for j in 0..inst.jobs() {
            online.arrive(inst.time(j));
        }
        let schedule = online.into_schedule()?;
        drop(stream_span);
        let stats = SolveStats {
            wall: start.elapsed(),
            ..SolveStats::default()
        };
        Ok(SolveReport::heuristic(schedule, inst, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{Instance, Scheduler};

    #[test]
    fn matches_offline_ls_on_identical_machines() {
        let inst = Instance::new(vec![5, 3, 8, 2, 7, 1, 4], 3).unwrap();
        let online = LsOnline.schedule(&inst).unwrap();
        let offline = crate::Ls.schedule(&inst).unwrap();
        assert_eq!(online, offline);
    }

    #[test]
    fn graham_adversary_is_tight() {
        // m(m−1) unit jobs then one job of size m: greedy balances the units
        // to height m−1 everywhere, then the big job lands on top, giving
        // 2m−1 against the optimum m — the tight (2 − 1/m) instance.
        let m = 4u64;
        let mut times = vec![1; (m * (m - 1)) as usize];
        times.push(m);
        let inst = Instance::new(times, m as usize).unwrap();
        assert_eq!(LsOnline.makespan(&inst).unwrap(), 2 * m - 1);
    }

    #[test]
    fn stream_tracks_loads_and_makespan() {
        let mut online = OnlineScheduler::new(2).unwrap();
        for t in [4, 4, 2] {
            online.arrive(t);
        }
        assert_eq!(online.loads(), &[6, 4]);
        assert_eq!(online.makespan(), 6);
        assert_eq!(online.jobs(), 3);
        let s = online.into_schedule().unwrap();
        assert_eq!(s.assignment(), &[0, 1, 0]);
    }

    #[test]
    fn speed_aware_stream_prefers_the_fast_machine() {
        let mut online = OnlineScheduler::with_speeds(vec![1, 4]).unwrap();
        assert_eq!(online.arrive(8), 1, "8/4 = 2 beats 8/1 = 8");
        assert_eq!(online.arrive(2), 0, "2/1 = 2 beats (8+2)/4 = 2.5");
        assert_eq!(online.arrive(6), 1, "(8+6)/4 = 3.5 beats (2+6)/1 = 8");
        assert_eq!(online.makespan(), 4, "⌈14/4⌉ = 4 on the fast machine");
    }

    #[test]
    fn rejects_degenerate_machine_sets() {
        assert!(OnlineScheduler::new(0).is_err());
        assert!(OnlineScheduler::with_speeds(vec![1, 0]).is_err());
    }

    #[test]
    fn uniform_instance_solves_end_to_end() {
        let inst = Instance::with_speeds(vec![6, 5, 4, 3, 2, 1], vec![3, 1]).unwrap();
        let report = LsOnline.solve(&SolveRequest::new(&inst)).unwrap();
        report.schedule.validate(&inst).unwrap();
        assert_eq!(report.makespan, report.schedule.makespan(&inst));
        assert_eq!(report.certified_target, None);
    }
}

//! Schedules (job → machine assignments) and their validation.

use crate::json::{self, FromJson, ToJson, Value};
use crate::{Error, Instance, MachineId, Result, Time};

/// A complete non-preemptive schedule: every job is assigned to exactly one
/// machine. Because machines are identical and jobs are released at time zero,
/// a `P||Cmax` schedule is fully characterized by this assignment — the
/// completion time of a machine is simply the sum of its jobs' times.
///
/// ```
/// use pcmax_core::{Instance, Schedule};
///
/// let inst = Instance::new(vec![3, 5, 2], 2).unwrap();
/// let sched = Schedule::from_assignment(vec![0, 1, 0], 2).unwrap();
/// assert!(sched.validate(&inst).is_ok());
/// assert_eq!(sched.loads(&inst), vec![5, 5]);
/// assert_eq!(sched.makespan(&inst), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `assignment[j]` is the machine executing job `j`.
    assignment: Vec<MachineId>,
    machines: usize,
}

impl Schedule {
    /// Builds a schedule from an explicit job→machine map, checking that all
    /// machine indices are in range.
    pub fn from_assignment(assignment: Vec<MachineId>, machines: usize) -> Result<Self> {
        if machines == 0 {
            return Err(Error::NoMachines);
        }
        if let Some(&machine) = assignment.iter().find(|&&mach| mach >= machines) {
            return Err(Error::MachineOutOfRange { machine, machines });
        }
        Ok(Self {
            assignment,
            machines,
        })
    }

    /// Number of machines the schedule spans.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of scheduled jobs.
    #[inline]
    pub fn jobs(&self) -> usize {
        self.assignment.len()
    }

    /// Machine executing job `j`.
    #[inline]
    pub fn machine_of(&self, j: usize) -> MachineId {
        self.assignment[j]
    }

    /// The raw job→machine map.
    #[inline]
    pub fn assignment(&self) -> &[MachineId] {
        &self.assignment
    }

    /// Completion time of every machine under `inst`'s processing times.
    pub fn loads(&self, inst: &Instance) -> Vec<Time> {
        let mut loads = vec![0; self.machines];
        for (j, &mach) in self.assignment.iter().enumerate() {
            loads[mach] += inst.time(j);
        }
        loads
    }

    /// Completion time of every machine: `⌈load_i / s_i⌉` (equal to the raw
    /// load on identical machines, where every `s_i = 1`).
    pub fn completions(&self, inst: &Instance) -> Vec<Time> {
        self.loads(inst)
            .into_iter()
            .enumerate()
            .map(|(i, load)| load.div_ceil(inst.speed(i).max(1)))
            .collect()
    }

    /// The makespan `C_max = max_i ⌈load_i / s_i⌉` (0 for an empty schedule).
    /// On identical machines this is the maximum load, exactly as before
    /// speeds existed.
    pub fn makespan(&self, inst: &Instance) -> Time {
        self.completions(inst).into_iter().max().unwrap_or(0)
    }

    /// Job ids grouped per machine, in increasing job-id order.
    pub fn jobs_per_machine(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.machines];
        for (j, &mach) in self.assignment.iter().enumerate() {
            groups[mach].push(j);
        }
        groups
    }

    /// Checks structural consistency against an instance: same job count and
    /// same machine count.
    pub fn validate(&self, inst: &Instance) -> Result<()> {
        if self.jobs() != inst.jobs() {
            return Err(Error::JobCountMismatch {
                scheduled: self.jobs(),
                expected: inst.jobs(),
            });
        }
        if self.machines != inst.machines() {
            return Err(Error::MachineOutOfRange {
                machine: self.machines,
                machines: inst.machines(),
            });
        }
        Ok(())
    }
}

impl ToJson for Schedule {
    fn to_json(&self) -> Value {
        json::object(vec![
            (
                "assignment",
                json::u64_array(self.assignment.iter().map(|&m| m as u64)),
            ),
            ("machines", Value::UInt(self.machines as u64)),
        ])
    }
}

impl FromJson for Schedule {
    fn from_json(v: &Value) -> Result<Self> {
        let assignment = json::field_u64_array(v, "assignment")?
            .into_iter()
            .map(|m| m as usize)
            .collect();
        let machines = json::field_u64(v, "machines")? as usize;
        Self::from_assignment(assignment, machines)
    }
}

/// Incremental schedule construction used by the list-scheduling style
/// algorithms: jobs are appended one at a time to a chosen machine while the
/// builder tracks machine loads.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder<'a> {
    inst: &'a Instance,
    assignment: Vec<Option<MachineId>>,
    loads: Vec<Time>,
}

impl<'a> ScheduleBuilder<'a> {
    /// Starts an empty schedule for `inst`.
    pub fn new(inst: &'a Instance) -> Self {
        Self {
            inst,
            assignment: vec![None; inst.jobs()],
            loads: vec![0; inst.machines()],
        }
    }

    /// Assigns job `j` to `machine`, updating that machine's load.
    ///
    /// Panics if `j` was already assigned (a schedule is a function of jobs).
    pub fn assign(&mut self, j: usize, machine: MachineId) {
        assert!(
            self.assignment[j].is_none(),
            "job {j} assigned twice (to {:?} and {machine})",
            self.assignment[j]
        );
        self.assignment[j] = Some(machine);
        self.loads[machine] += self.inst.time(j);
    }

    /// Current load of `machine`.
    #[inline]
    pub fn load(&self, machine: MachineId) -> Time {
        self.loads[machine]
    }

    /// Current loads of all machines.
    #[inline]
    pub fn loads(&self) -> &[Time] {
        &self.loads
    }

    /// Finishes construction. Returns an error if any job is unassigned.
    pub fn build(self) -> Result<Schedule> {
        let mut assignment = Vec::with_capacity(self.assignment.len());
        for (j, slot) in self.assignment.iter().enumerate() {
            match slot {
                Some(mach) => assignment.push(*mach),
                None => {
                    return Err(Error::JobCountMismatch {
                        scheduled: j,
                        expected: self.inst.jobs(),
                    })
                }
            }
        }
        Schedule::from_assignment(assignment, self.inst.machines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        Instance::new(vec![3, 5, 2, 4], 2).unwrap()
    }

    #[test]
    fn rejects_out_of_range_machine() {
        let err = Schedule::from_assignment(vec![0, 2], 2).unwrap_err();
        assert_eq!(
            err,
            Error::MachineOutOfRange {
                machine: 2,
                machines: 2
            }
        );
    }

    #[test]
    fn loads_and_makespan() {
        let s = Schedule::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        assert_eq!(s.loads(&inst()), vec![5, 9]);
        assert_eq!(s.makespan(&inst()), 9);
    }

    #[test]
    fn makespan_divides_by_machine_speed() {
        // Machine 0 runs 3x: loads (5, 4) -> completions (⌈5/3⌉, 4) = (2, 4).
        let inst = Instance::with_speeds(vec![3, 5, 2, 4], vec![3, 1]).unwrap();
        let s = Schedule::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        assert_eq!(s.loads(&inst), vec![5, 9]);
        assert_eq!(s.completions(&inst), vec![2, 9]);
        assert_eq!(s.makespan(&inst), 9);
    }

    #[test]
    fn empty_schedule_makespan_zero() {
        let inst = Instance::new(vec![], 2).unwrap();
        let s = Schedule::from_assignment(vec![], 2).unwrap();
        assert_eq!(s.makespan(&inst), 0);
    }

    #[test]
    fn validate_detects_job_count_mismatch() {
        let s = Schedule::from_assignment(vec![0, 1], 2).unwrap();
        assert!(matches!(
            s.validate(&inst()),
            Err(Error::JobCountMismatch { .. })
        ));
    }

    #[test]
    fn validate_detects_machine_count_mismatch() {
        let s = Schedule::from_assignment(vec![0, 1, 0, 2], 3).unwrap();
        assert!(s.validate(&inst()).is_err());
    }

    #[test]
    fn jobs_per_machine_groups() {
        let s = Schedule::from_assignment(vec![1, 0, 1, 0], 2).unwrap();
        assert_eq!(s.jobs_per_machine(), vec![vec![1, 3], vec![0, 2]]);
    }

    #[test]
    fn builder_tracks_loads_and_builds() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst);
        b.assign(1, 0); // t=5
        b.assign(0, 1); // t=3
        assert_eq!(b.loads(), &[5, 3]);
        b.assign(3, 1); // t=4 -> loads 5,7
        b.assign(2, 0); // t=2 -> loads 7,7
        assert_eq!(b.loads(), &[7, 7]);
        let s = b.build().unwrap();
        assert_eq!(s.makespan(&inst), 7);
    }

    #[test]
    fn builder_rejects_incomplete() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst);
        b.assign(0, 0);
        assert!(b.build().is_err());
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn builder_panics_on_double_assign() {
        let inst = inst();
        let mut b = ScheduleBuilder::new(&inst);
        b.assign(0, 0);
        b.assign(0, 1);
    }

    #[test]
    fn json_roundtrip() {
        let s = Schedule::from_assignment(vec![0, 1, 1], 2).unwrap();
        let json = crate::json::to_string(&s);
        let back: Schedule = crate::json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}

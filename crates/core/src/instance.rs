//! Problem instances of `P||Cmax` and its uniform-machine sibling `Q||Cmax`.

use crate::json::{self, FromJson, ToJson, Value};
use crate::{Error, Result, Time};

/// An immutable, validated instance of `P||Cmax` (or, when machine speeds
/// are attached, `Q||Cmax`).
///
/// An instance is a multiset of positive integer processing times together
/// with a machine count `m ≥ 1`. Jobs are identified by their index in
/// [`times`](Instance::times). Machines are identical unless the instance
/// was built with [`with_speeds`](Instance::with_speeds), in which case
/// machine `i` processes work at integer rate `speeds[i] ≥ 1` and a load of
/// `w` completes at time `⌈w / speeds[i]⌉`.
///
/// ```
/// use pcmax_core::Instance;
///
/// let inst = Instance::new(vec![3, 5, 2, 7], 2).unwrap();
/// assert_eq!(inst.jobs(), 4);
/// assert_eq!(inst.machines(), 2);
/// assert_eq!(inst.total_time(), 17);
/// assert_eq!(inst.max_time(), 7);
/// assert!(!inst.is_uniform());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instance {
    times: Vec<Time>,
    machines: usize,
    /// Per-machine speeds for `Q||Cmax`; empty means all speeds are 1
    /// (identical machines), which keeps equality/hashing of pre-existing
    /// `P||Cmax` instances unchanged.
    speeds: Vec<Time>,
}

impl Instance {
    /// Builds an instance, validating that `m ≥ 1`, that every processing
    /// time is a positive integer (the model of the paper), and that
    /// `Σ tⱼ + max tⱼ` fits in a [`Time`]: that sum bounds the makespan
    /// bracket, every probed target and every machine load.
    pub fn new(times: Vec<Time>, machines: usize) -> Result<Self> {
        if machines == 0 {
            return Err(Error::NoMachines);
        }
        if let Some(job) = times.iter().position(|&t| t == 0) {
            return Err(Error::NonPositiveTime { job });
        }
        let max = times.iter().copied().max().unwrap_or(0);
        if times
            .iter()
            .try_fold(max, |sum, &t| sum.checked_add(t))
            .is_none()
        {
            return Err(Error::BadModel(
                "instance: Σ tⱼ + max tⱼ overflows u64".into(),
            ));
        }
        Ok(Self {
            times,
            machines,
            speeds: Vec::new(),
        })
    }

    /// Builds a uniform-machine (`Q||Cmax`) instance: one positive integer
    /// speed per machine, with `Σ sᵢ` fitting in a [`Time`]. A speed vector
    /// of all ones is normalized away so the instance compares equal to its
    /// identical-machine twin.
    pub fn with_speeds(times: Vec<Time>, speeds: Vec<Time>) -> Result<Self> {
        let machines = speeds.len();
        let mut inst = Self::new(times, machines)?;
        if let Some(machine) = speeds.iter().position(|&s| s == 0) {
            return Err(Error::BadModel(format!(
                "machine {machine} has zero speed; speeds must be >= 1"
            )));
        }
        if speeds
            .iter()
            .try_fold(0, |sum: Time, &s| sum.checked_add(s))
            .is_none()
        {
            return Err(Error::BadModel("instance: Σ sᵢ overflows u64".into()));
        }
        if speeds.iter().any(|&s| s != 1) {
            inst.speeds = speeds;
        }
        Ok(inst)
    }

    /// Whether this is a `Q||Cmax` instance (some machine speed differs
    /// from 1).
    #[inline]
    pub fn is_uniform(&self) -> bool {
        !self.speeds.is_empty()
    }

    /// Speed of machine `i` (1 for identical machines).
    #[inline]
    pub fn speed(&self, machine: usize) -> Time {
        debug_assert!(machine < self.machines);
        self.speeds.get(machine).copied().unwrap_or(1)
    }

    /// All machine speeds, materialized to length `m` (all ones when
    /// identical).
    pub fn speeds(&self) -> Vec<Time> {
        if self.speeds.is_empty() {
            vec![1; self.machines]
        } else {
            self.speeds.clone()
        }
    }

    /// Total processing rate `Σ sᵢ` (`m` for identical machines).
    pub fn total_speed(&self) -> Time {
        if self.speeds.is_empty() {
            self.machines as Time
        } else {
            self.speeds.iter().sum()
        }
    }

    /// Fastest machine speed (1 for identical machines).
    pub fn max_speed(&self) -> Time {
        if self.speeds.is_empty() {
            1
        } else {
            self.speeds.iter().copied().max().unwrap_or(1)
        }
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn jobs(&self) -> usize {
        self.times.len()
    }

    /// Number of machines `m`.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Processing time of job `j`. Panics if `j >= n`.
    #[inline]
    pub fn time(&self, j: usize) -> Time {
        self.times[j]
    }

    /// All processing times, indexed by job id.
    #[inline]
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// Sum of all processing times `Σ tⱼ`.
    pub fn total_time(&self) -> Time {
        self.times.iter().sum()
    }

    /// Largest processing time `max tⱼ` (0 for an empty instance).
    pub fn max_time(&self) -> Time {
        self.times.iter().copied().max().unwrap_or(0)
    }

    /// Average machine load `Σ tⱼ / m`, rounded up — the "area" lower bound.
    pub fn mean_load_ceil(&self) -> Time {
        let m = self.machines as Time;
        self.total_time().div_ceil(m)
    }

    /// Job ids sorted by non-increasing processing time (ties by index, so the
    /// order is deterministic). This is the LPT order.
    pub fn jobs_by_decreasing_time(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.jobs()).collect();
        ids.sort_by(|&a, &b| self.times[b].cmp(&self.times[a]).then(a.cmp(&b)));
        ids
    }

    /// Returns a new instance with the same jobs but `m'` machines.
    pub fn with_machines(&self, machines: usize) -> Result<Self> {
        Self::new(self.times.clone(), machines)
    }
}

impl ToJson for Instance {
    fn to_json(&self) -> Value {
        let mut members = vec![
            ("times", json::u64_array(self.times.iter().copied())),
            ("machines", Value::UInt(self.machines as u64)),
        ];
        // Emitted only for uniform instances, so identical-machine files
        // keep the exact pre-speeds wire format.
        if self.is_uniform() {
            members.push(("speeds", json::u64_array(self.speeds.iter().copied())));
        }
        json::object(members)
    }
}

impl FromJson for Instance {
    fn from_json(v: &Value) -> Result<Self> {
        let times = json::field_u64_array(v, "times")?;
        if v.get("speeds").is_some() {
            let speeds = json::field_u64_array(v, "speeds")?;
            let machines = json::field_u64(v, "machines")? as usize;
            if machines != speeds.len() {
                return Err(Error::BadModel(format!(
                    "{} speeds for {machines} machines",
                    speeds.len()
                )));
            }
            return Self::with_speeds(times, speeds);
        }
        let machines = json::field_u64(v, "machines")? as usize;
        Self::new(times, machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_machines() {
        assert_eq!(Instance::new(vec![1, 2], 0).unwrap_err(), Error::NoMachines);
    }

    #[test]
    fn rejects_zero_time_and_names_the_job() {
        let err = Instance::new(vec![3, 0, 5], 4).unwrap_err();
        assert_eq!(err, Error::NonPositiveTime { job: 1 });
    }

    #[test]
    fn rejects_totals_that_overflow() {
        // Σ tⱼ alone overflows; so does Σ tⱼ + max tⱼ with Σ tⱼ = 2^63 + 2^62.
        for times in [vec![u64::MAX, u64::MAX], vec![1 << 63, 1 << 62]] {
            let err = Instance::new(times, 1).unwrap_err();
            assert!(matches!(&err, Error::BadModel(m) if m.contains("overflows")));
        }
        // 2^62 + 2^62 = 2^63 and 2^63 + 2^62 both fit.
        Instance::new(vec![1 << 62, 1 << 62], 1).unwrap();
        let err = Instance::with_speeds(vec![1], vec![u64::MAX, 1]).unwrap_err();
        assert!(matches!(&err, Error::BadModel(m) if m.contains("overflows")));
    }

    #[test]
    fn empty_instance_is_allowed() {
        let inst = Instance::new(vec![], 3).unwrap();
        assert_eq!(inst.jobs(), 0);
        assert_eq!(inst.total_time(), 0);
        assert_eq!(inst.max_time(), 0);
        assert_eq!(inst.mean_load_ceil(), 0);
    }

    #[test]
    fn aggregates() {
        let inst = Instance::new(vec![4, 4, 4, 4, 4], 2).unwrap();
        assert_eq!(inst.total_time(), 20);
        assert_eq!(inst.max_time(), 4);
        assert_eq!(inst.mean_load_ceil(), 10);
    }

    #[test]
    fn mean_load_rounds_up() {
        let inst = Instance::new(vec![5, 5, 5], 2).unwrap();
        // 15 / 2 = 7.5 -> 8
        assert_eq!(inst.mean_load_ceil(), 8);
    }

    #[test]
    fn lpt_order_is_decreasing_and_stable() {
        let inst = Instance::new(vec![3, 9, 3, 7], 2).unwrap();
        assert_eq!(inst.jobs_by_decreasing_time(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn json_roundtrip() {
        let inst = Instance::new(vec![2, 8, 6], 3).unwrap();
        let json = crate::json::to_string(&inst);
        let back: Instance = crate::json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn json_validates_on_load() {
        assert!(crate::json::from_str::<Instance>(r#"{"times":[1,0],"machines":2}"#).is_err());
        assert!(crate::json::from_str::<Instance>(r#"{"times":[1],"machines":0}"#).is_err());
    }

    #[test]
    fn uniform_speeds_roundtrip_and_aggregate() {
        let inst = Instance::with_speeds(vec![6, 4, 2], vec![3, 1]).unwrap();
        assert!(inst.is_uniform());
        assert_eq!(inst.machines(), 2);
        assert_eq!((inst.speed(0), inst.speed(1)), (3, 1));
        assert_eq!(inst.total_speed(), 4);
        assert_eq!(inst.max_speed(), 3);
        let json = crate::json::to_string(&inst);
        assert!(json.contains("speeds"));
        let back: Instance = crate::json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn unit_speeds_normalize_to_identical() {
        let a = Instance::with_speeds(vec![5, 3], vec![1, 1, 1]).unwrap();
        let b = Instance::new(vec![5, 3], 3).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_uniform());
        assert_eq!(a.total_speed(), 3);
    }

    #[test]
    fn zero_speed_is_rejected() {
        assert!(Instance::with_speeds(vec![5], vec![2, 0]).is_err());
        assert!(Instance::with_speeds(vec![5], vec![]).is_err());
    }

    #[test]
    fn speeds_json_rejects_length_mismatch() {
        let err = crate::json::from_str::<Instance>(r#"{"times":[1],"machines":3,"speeds":[2,1]}"#);
        assert!(err.is_err());
    }

    #[test]
    fn with_machines_keeps_jobs() {
        let inst = Instance::new(vec![2, 8, 6], 3).unwrap();
        let other = inst.with_machines(5).unwrap();
        assert_eq!(other.machines(), 5);
        assert_eq!(other.times(), inst.times());
    }
}

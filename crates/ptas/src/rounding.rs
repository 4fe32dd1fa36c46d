//! Partitioning jobs into long/short and rounding the long jobs
//! (Lines 9–24 of Algorithm 1).

use crate::params::EpsilonParams;
use pcmax_core::{Instance, Time};

/// The rounding seam of the chassis: maps an instance at a target makespan
/// to the class-count vector `N` and the rounding unit, plus whatever
/// metadata the scenario needs later to map rounded jobs back to original
/// ones. Both scenarios round with [`PcmaxRounding`]: `P||Cmax` against the
/// target itself, `Q||Cmax` against the fastest machine's work capacity.
pub trait Rounding {
    /// Reconstruction metadata carried from the rounding to the witness
    /// mapping (for the PTAS scenarios: the per-class member job ids plus
    /// the long/short partition).
    type Map;

    /// Rounds `inst` at `target`, returning the full-width class counts
    /// `N`, the rounding unit, and the reconstruction map.
    fn round_at(&self, inst: &Instance, target: Time) -> (Vec<u32>, Time, Self::Map);

    /// The class-count vector `N` and the rounding unit at `target`,
    /// *without* building the reconstruction map; equal to the first two
    /// parts of [`round_at`](Self::round_at). No solve calls it: the
    /// chassis keys its profile cache on the rounding the DP solves. It is
    /// kept for the benchmark's per-layer replay, which times this pass.
    /// The default delegates to `round_at`; implementations may skip the
    /// map.
    fn fingerprint(&self, inst: &Instance, target: Time) -> (Vec<u32>, Time) {
        let (counts, unit, _) = self.round_at(inst, target);
        (counts, unit)
    }
}

/// Identical-machine rounding (Lines 9–24 of Algorithm 1): split long/short
/// at `T/k`, round long jobs down to multiples of `⌈T/k²⌉`.
#[derive(Debug, Clone, Copy)]
pub struct PcmaxRounding<'a> {
    /// The `ε`/`k` parameterization.
    pub params: &'a EpsilonParams,
}

impl Rounding for PcmaxRounding<'_> {
    type Map = (RoundedLongJobs, JobPartition);

    fn round_at(&self, inst: &Instance, target: Time) -> (Vec<u32>, Time, Self::Map) {
        let partition = JobPartition::split(inst, self.params, target);
        let rounded = RoundedLongJobs::round(inst, self.params, &partition);
        (rounded.counts.clone(), rounded.unit, (rounded, partition))
    }

    /// Counts-only override: one pass over the times, no per-class member
    /// lists.
    fn fingerprint(&self, inst: &Instance, target: Time) -> (Vec<u32>, Time) {
        let k2 = self.params.classes();
        let unit = self.params.unit(target);
        let mut counts = vec![0u32; k2];
        for &t in inst.times() {
            if self.params.is_long(t, target) {
                let class = ((t / unit) as usize).clamp(1, k2);
                counts[class - 1] += 1;
            }
        }
        (counts, unit)
    }
}

/// The long/short partition of an instance at a given target makespan `T`:
/// a job is *long* iff `t > T/k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPartition {
    /// Ids of long jobs.
    pub long: Vec<usize>,
    /// Ids of short jobs.
    pub short: Vec<usize>,
    /// The target makespan used for the split.
    pub target: Time,
}

impl JobPartition {
    /// Splits `inst`'s jobs at target `t`.
    pub fn split(inst: &Instance, params: &EpsilonParams, target: Time) -> Self {
        let mut long = Vec::new();
        let mut short = Vec::new();
        for (j, &tj) in inst.times().iter().enumerate() {
            if params.is_long(tj, target) {
                long.push(j);
            } else {
                short.push(j);
            }
        }
        Self {
            long,
            short,
            target,
        }
    }
}

/// Long jobs rounded down to multiples of the unit `⌈T/k²⌉`, bucketed by
/// class. Class `i ∈ 1..=k²` holds jobs with `⌊t/unit⌋ = i`, whose rounded
/// size is `i·unit ≤ t`. Also keeps the original job ids per class so the
/// rounded schedule can be mapped back to real jobs (Lines 31–40).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundedLongJobs {
    /// `counts[i-1]` = number of long jobs in class `i` (the vector `N`).
    pub counts: Vec<u32>,
    /// Original job ids per class, same indexing as `counts`.
    pub members: Vec<Vec<usize>>,
    /// Rounding unit `⌈T/k²⌉`.
    pub unit: Time,
    /// Target makespan `T`.
    pub target: Time,
}

impl RoundedLongJobs {
    /// Rounds the long jobs of `partition` (Lines 15–24 of Algorithm 1).
    ///
    /// Every long job satisfies `T/k < t ≤ T` (the bisection never probes a
    /// target below `max tⱼ`), so its class index lands in `1..=k²`; we
    /// debug-assert that invariant instead of clamping.
    pub fn round(inst: &Instance, params: &EpsilonParams, partition: &JobPartition) -> Self {
        let k2 = params.classes();
        let unit = params.unit(partition.target);
        let mut counts = vec![0u32; k2];
        let mut members = vec![Vec::new(); k2];
        for &j in &partition.long {
            let t = inst.time(j);
            debug_assert!(t <= partition.target, "job longer than target");
            let class = (t / unit) as usize;
            debug_assert!(
                (1..=k2).contains(&class),
                "long job class {class} out of 1..={k2}"
            );
            let class = class.clamp(1, k2);
            counts[class - 1] += 1;
            members[class - 1].push(j);
        }
        Self {
            counts,
            members,
            unit,
            target: partition.target,
        }
    }

    /// Rounded size of class `i` (1-based): `i·unit`.
    #[inline]
    pub fn class_size(&self, class_1based: usize) -> Time {
        class_1based as Time * self.unit
    }

    /// Total number of long jobs `n'`.
    pub fn total_jobs(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Maximum additive rounding error per job: original − rounded `< unit`.
    pub fn max_rounding_error(&self) -> Time {
        self.unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::Instance;

    fn params() -> EpsilonParams {
        EpsilonParams::new(0.3).unwrap() // k = 4, k² = 16
    }

    /// The worked example of Section III: T = 30, jobs {6,6,11,11,11} are all
    /// long (> 30/4 = 7.5 — the 6s are NOT long). We extend with short jobs
    /// to exercise the split.
    #[test]
    fn split_matches_strict_threshold() {
        let inst = Instance::new(vec![6, 6, 11, 11, 11, 7, 8], 3).unwrap();
        let p = JobPartition::split(&inst, &params(), 30);
        // T/k = 7.5: long iff t > 7.5 -> {11, 11, 11, 8}.
        assert_eq!(p.long, vec![2, 3, 4, 6]);
        assert_eq!(p.short, vec![0, 1, 5]);
    }

    /// The paper's example vector N: with T = 30 (unit 2), jobs of size 6 are
    /// class 3 and jobs of size 11 are class 5 — i.e. rounded sizes 6 and 10.
    /// (The paper's prose labels them "6" and "11" informally; per the
    /// formula in Lines 16–18 the class indices are ⌊6/2⌋ = 3 and ⌊11/2⌋ = 5.)
    #[test]
    fn rounding_classes_match_formula() {
        let inst = Instance::new(vec![6, 6, 11, 11, 11], 2).unwrap();
        // Force all five jobs long by taking T small enough that t > T/k,
        // while keeping unit = ceil(T/16) = 2: T = 22 -> T/k = 5.5.
        let p = JobPartition::split(&inst, &params(), 22);
        assert_eq!(p.long.len(), 5);
        let r = RoundedLongJobs::round(&inst, &params(), &p);
        assert_eq!(r.unit, 2); // ceil(22/16)
                               // class(6) = 3, class(11) = 5.
        assert_eq!(r.counts[2], 2);
        assert_eq!(r.counts[4], 3);
        assert_eq!(r.counts.iter().sum::<u32>(), 5);
        assert_eq!(r.members[2], vec![0, 1]);
        assert_eq!(r.members[4], vec![2, 3, 4]);
        assert_eq!(r.class_size(3), 6);
        assert_eq!(r.class_size(5), 10);
    }

    #[test]
    fn rounded_size_never_exceeds_original() {
        let inst = Instance::new(vec![97, 64, 100, 83], 2).unwrap();
        let p = JobPartition::split(&inst, &params(), 100);
        let r = RoundedLongJobs::round(&inst, &params(), &p);
        for (ci, members) in r.members.iter().enumerate() {
            for &j in members {
                let rounded = r.class_size(ci + 1);
                let original = inst.time(j);
                assert!(rounded <= original);
                assert!(original - rounded < r.unit);
            }
        }
    }

    #[test]
    fn no_long_jobs_when_target_dwarfs_times() {
        let inst = Instance::new(vec![1, 2, 3], 2).unwrap();
        let p = JobPartition::split(&inst, &params(), 1000);
        assert!(p.long.is_empty());
        let r = RoundedLongJobs::round(&inst, &params(), &p);
        assert_eq!(r.total_jobs(), 0);
    }

    #[test]
    fn fingerprint_matches_full_rounding() {
        let p = params();
        let rounding = PcmaxRounding { params: &p };
        for (times, m, target) in [
            (vec![6, 6, 11, 11, 11, 7, 8], 3, 30u64),
            (vec![97, 64, 100, 83], 2, 100),
            (vec![1, 2, 3], 2, 1000),
            (vec![32, 1], 2, 32),
        ] {
            let inst = Instance::new(times, m).unwrap();
            let (counts, unit, _) = rounding.round_at(&inst, target);
            let (fp_counts, fp_unit) = rounding.fingerprint(&inst, target);
            assert_eq!(fp_counts, counts, "target {target}");
            assert_eq!(fp_unit, unit, "target {target}");
        }
    }

    #[test]
    fn boundary_job_exactly_at_target_lands_in_class_k2() {
        // t = T: class = floor(T/unit) <= k². With T = 32 and unit 2:
        // class(32) = 16 = k².
        let inst = Instance::new(vec![32, 1], 2).unwrap();
        let p = JobPartition::split(&inst, &params(), 32);
        let r = RoundedLongJobs::round(&inst, &params(), &p);
        assert_eq!(r.counts[15], 1);
        assert_eq!(r.class_size(16), 32);
    }
}

//! The output check every answered request goes through.

use pcmax_core::{Instance, MakespanBounds};

/// One answer as the program reported it.
pub struct Answer<'a> {
    pub assignment: &'a [u64],
    pub makespan: u64,
    pub certified_target: Option<u64>,
}

/// Checks that `answer` schedules every job of `inst` exactly once on a
/// machine `< m`, that its makespan recomputed here equals the reported one,
/// and that a PTAS answer stays within its guarantee over its certified
/// target.
/// Returns the makespan over the instance's lower bound.
pub fn check(inst: &Instance, answer: &Answer<'_>, eps: f64) -> Result<f64, String> {
    let m = inst.machines();
    if answer.assignment.len() != inst.jobs() {
        return Err(format!(
            "{} jobs assigned, instance has {}",
            answer.assignment.len(),
            inst.jobs()
        ));
    }
    let mut loads = vec![0u64; m];
    for (j, &machine) in answer.assignment.iter().enumerate() {
        let machine = usize::try_from(machine).unwrap_or(usize::MAX);
        if machine >= m {
            return Err(format!("job {j} on machine {machine}, only {m} exist"));
        }
        loads[machine] += inst.time(j);
    }
    let makespan = loads
        .iter()
        .enumerate()
        .map(|(i, &load)| load.div_ceil(inst.speed(i).max(1)))
        .max()
        .unwrap_or(0);
    if makespan != answer.makespan {
        return Err(format!(
            "reported makespan {} but the assignment gives {makespan}",
            answer.makespan
        ));
    }
    if let Some(target) = answer.certified_target {
        // The dual approximation's integer rounding adds up to k = ⌈1/ε⌉
        // on top of (1 + ε)·T*, as `pcmax_engine::Guarantee::Epsilon`
        // documents; seed 1 of `serve-mixed` has an answer of 68 at T* = 48
        // and ε = 0.4, above 1.4·48 but within the slack.
        let bound = (1.0 + eps) * target as f64 + (1.0 / eps).ceil();
        if makespan as f64 > bound {
            return Err(format!(
                "makespan {makespan} exceeds (1 + {eps}) x certified target {target} + {}",
                (1.0 / eps).ceil()
            ));
        }
    }
    let lower = MakespanBounds::of(inst).lower.max(1);
    Ok(makespan as f64 / lower as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        Instance::new(vec![5, 4, 3, 3], 2).unwrap()
    }

    #[test]
    fn accepts_a_valid_answer() {
        let a = Answer {
            assignment: &[0, 1, 1, 0],
            makespan: 8,
            certified_target: Some(8),
        };
        assert!(check(&inst(), &a, 0.3).is_ok());
    }

    #[test]
    fn rejects_bad_answers() {
        let wrong_machine = Answer {
            assignment: &[0, 1, 2, 0],
            makespan: 8,
            certified_target: None,
        };
        assert!(check(&inst(), &wrong_machine, 0.3).is_err());
        let wrong_makespan = Answer {
            assignment: &[0, 1, 1, 0],
            makespan: 7,
            certified_target: None,
        };
        assert!(check(&inst(), &wrong_makespan, 0.3).is_err());
        let missing_job = Answer {
            assignment: &[0, 1, 1],
            makespan: 8,
            certified_target: None,
        };
        assert!(check(&inst(), &missing_job, 0.3).is_err());
        let beyond_guarantee = Answer {
            assignment: &[0, 0, 0, 1],
            makespan: 12,
            certified_target: Some(5),
        };
        assert!(check(&inst(), &beyond_guarantee, 0.3).is_err());
    }
}

//! Error type shared across the workspace.

use std::fmt;

/// Convenience alias used by every fallible API in the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced when constructing instances/schedules or running solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An instance must have at least one machine.
    NoMachines,
    /// Every processing time must be a positive integer (the paper's model).
    NonPositiveTime {
        /// Index of the offending job.
        job: usize,
    },
    /// A schedule references a machine index `>= m`.
    MachineOutOfRange {
        /// Offending machine index.
        machine: usize,
        /// Number of machines in the instance.
        machines: usize,
    },
    /// A schedule covers a different number of jobs than the instance has.
    JobCountMismatch {
        /// Jobs in the schedule.
        scheduled: usize,
        /// Jobs in the instance.
        expected: usize,
    },
    /// The approximation parameter epsilon must be strictly positive.
    InvalidEpsilon {
        /// A human-readable description of the violated constraint.
        reason: &'static str,
    },
    /// A solver hit its node or time budget before proving optimality.
    BudgetExhausted {
        /// Best makespan found so far (an upper bound on the optimum);
        /// `None` when the solver stopped before it had any schedule.
        incumbent: Option<u64>,
        /// Best proven lower bound on the optimum.
        lower_bound: u64,
    },
    /// The solve was cancelled through its [`CancelToken`] before finishing.
    ///
    /// [`CancelToken`]: crate::engine::CancelToken
    Cancelled,
    /// The DP's witness (the reconstructed configuration multiset) violates
    /// an invariant — a solver bug surfaced as an error instead of a panic.
    InvalidWitness {
        /// What the witness got wrong.
        reason: String,
    },
    /// The LP/MILP model is infeasible.
    Infeasible,
    /// The LP relaxation is unbounded (cannot happen for well-formed P||Cmax models).
    Unbounded,
    /// Malformed model supplied to the LP/MILP solver.
    BadModel(String),
    /// A solver name not present in the engine registry.
    UnknownSolver {
        /// The name that failed to resolve.
        name: String,
    },
    /// The serving engine's admission queue rejected the submission.
    Overloaded {
        /// Queue capacity that was exceeded.
        capacity: usize,
    },
    /// A JSON object names the same key twice.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
    /// The solver panicked; the engine caught the unwind and kept serving.
    SolverPanicked {
        /// The solver name the submission gave.
        solver: String,
        /// The panic message, when the payload was a string.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoMachines => write!(f, "instance must have at least one machine"),
            Error::NonPositiveTime { job } => {
                write!(f, "job {job} has non-positive processing time")
            }
            Error::MachineOutOfRange { machine, machines } => {
                write!(f, "machine index {machine} out of range (m = {machines})")
            }
            Error::JobCountMismatch {
                scheduled,
                expected,
            } => write!(
                f,
                "schedule covers {scheduled} jobs but instance has {expected}"
            ),
            Error::InvalidEpsilon { reason } => write!(f, "invalid epsilon: {reason}"),
            Error::BudgetExhausted {
                incumbent: Some(incumbent),
                lower_bound,
            } => write!(
                f,
                "search budget exhausted (incumbent {incumbent}, lower bound {lower_bound})"
            ),
            Error::BudgetExhausted {
                incumbent: None,
                lower_bound,
            } => write!(
                f,
                "search budget exhausted before any schedule was found (lower bound {lower_bound})"
            ),
            Error::Cancelled => write!(f, "solve cancelled before completion"),
            Error::InvalidWitness { reason } => {
                write!(f, "DP witness violates an invariant: {reason}")
            }
            Error::Infeasible => write!(f, "model is infeasible"),
            Error::Unbounded => write!(f, "LP relaxation is unbounded"),
            Error::BadModel(msg) => write!(f, "malformed model: {msg}"),
            Error::UnknownSolver { name } => {
                write!(f, "unknown solver name {name:?} (see the engine registry)")
            }
            Error::Overloaded { capacity } => {
                write!(f, "admission queue full ({capacity} submissions in flight)")
            }
            Error::DuplicateKey { key } => write!(f, "json: duplicate key {key:?} in an object"),
            Error::SolverPanicked { solver, message } => {
                write!(f, "solver {solver:?} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::MachineOutOfRange {
            machine: 7,
            machines: 4,
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('4'), "got: {s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn budget_exhausted_reports_gap() {
        let e = Error::BudgetExhausted {
            incumbent: Some(120),
            lower_bound: 100,
        };
        let s = e.to_string();
        assert!(s.contains("120") && s.contains("100"));
        let e = Error::BudgetExhausted {
            incumbent: None,
            lower_bound: 100,
        };
        let s = e.to_string();
        assert!(
            s.contains("before any schedule") && s.contains("100"),
            "got: {s}"
        );
    }
}

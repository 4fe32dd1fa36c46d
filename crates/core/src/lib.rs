//! Core types for the `P||Cmax` scheduling problem.
//!
//! `P||Cmax` (in the three-field notation of Lawler et al.): `n` jobs with
//! positive integer processing times must be scheduled non-preemptively on `m`
//! identical parallel machines so that the *makespan* — the maximum machine
//! completion time — is minimized. The problem is strongly NP-hard, so the
//! crates built on top of this one provide approximation algorithms
//! (`pcmax-baselines`, `pcmax-ptas`, `pcmax-parallel`) and exact solvers
//! (`pcmax-exact`, `pcmax-milp`).
//!
//! This crate defines:
//!
//! * [`Instance`] — an immutable, validated problem instance,
//! * [`Schedule`] — a job→machine assignment with load/makespan queries and
//!   validation against an instance,
//! * [`bounds`] — the lower/upper bounds on the optimal makespan used by the
//!   Hochbaum–Shmoys bisection (Equations 1 and 2 of Ghalami & Grosu 2017),
//! * [`engine`] — the solver-engine layer: [`Solver`], [`SolveRequest`]
//!   (budget + cancellation + optional trace sink and profile cache) and
//!   [`SolveReport`] (schedule + certified target + [`SolveStats`]) — the
//!   uniform interface every algorithm in the workspace implements,
//! * [`Scheduler`] — the legacy thin trait, blanket-implemented for every
//!   [`Solver`],
//! * small statistics, JSON and RNG helpers shared by the harness and the
//!   workload generators.

pub mod bounds;
pub mod engine;
pub mod error;
pub mod gantt;
pub mod instance;
pub mod json;
pub mod profile;
pub mod rng;
pub mod schedule;
pub mod scheduler;
pub mod stats;
pub mod wire;

pub use bounds::{lower_bound, upper_bound, MakespanBounds};
pub use engine::{
    Budget, CancelToken, PhaseTime, ReqSpan, SolveReport, SolveRequest, SolveStats, Solver,
    TraceSink,
};
pub use error::{Error, Result};
pub use gantt::render_gantt;
pub use instance::Instance;
pub use profile::{DpOutcome, ProfileCache, ProfileKey};
pub use schedule::{Schedule, ScheduleBuilder};
pub use scheduler::{ApproxRatio, Scheduler};

/// Processing time / makespan scalar. The paper assumes positive integers.
pub type Time = u64;

/// Index of a job within an [`Instance`] (`0..n`).
pub type JobId = usize;

/// Index of a machine (`0..m`).
pub type MachineId = usize;

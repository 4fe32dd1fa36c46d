//! The Hochbaum–Shmoys PTAS for `P||Cmax` (Algorithm 1 of Ghalami & Grosu
//! 2017), structured so that the dynamic program at its core is pluggable:
//!
//! * [`params`] — the `ε → k = ⌈1/ε⌉` parameterization,
//! * [`rounding`] — partition into long/short jobs and rounding of long jobs
//!   to multiples of `⌈T/k²⌉` (Lines 9–24 of Algorithm 1),
//! * [`config`] — machine-configuration enumeration (Equation 3),
//! * [`table`] — the mixed-radix dense DP table over job-count vectors,
//! * [`dp`] — the sequential engines ([`IterativeDp`], the serial oracle,
//!   and [`MemoizedDp`]; Algorithm 2), the [`DpSolver`] entry point every
//!   engine gets for `P||Cmax`, and the shared probe epilogue,
//! * [`trace`] — per-subproblem cost capture for the simulated executor,
//! * [`driver`] — the bisection search, schedule reconstruction and the
//!   public [`Ptas`] scheduler.
//!
//! Around that core sit the chassis seams (DESIGN.md §5) that make the DP
//! engine reusable across scheduling models:
//!
//! * [`rounding`] also hosts the [`Rounding`] trait (instance → size
//!   classes + reconstruction map) and its [`PcmaxRounding`] implementation,
//!   which both scenarios round with,
//! * [`space`] — the [`StateSpace`] trait (transition set + per-step
//!   feasibility filter) with the [`PcmaxSpace`]/[`QSpace`] instantiations,
//!   and the [`SpaceEngine`] trait, the one trait every DP engine
//!   implements,
//! * [`chassis`] — the [`Scenario`] trait (round, DP, reconstruct), the
//!   one feasibility probe `chassis::probe` (round once, key the profile
//!   cache on that rounding, take the DP outcome from the cache or the DP),
//!   and the one model-agnostic search loop `chassis::search` with its
//!   budget gates, probe log and stats bookkeeping. Every
//!   dual-approximation solver runs it: `chassis::drive` with one
//!   candidate per round for [`Ptas`] and [`QPtas`], and
//!   `pcmax_parallel::SpeculativePtas` with `w` concurrent candidates,
//! * [`uniform`] — the `Q||Cmax` instantiation ([`QPtas`]).
//!
//! The parallel DP of the paper (Algorithm 3) lives in the `pcmax-parallel`
//! crate as one more [`SpaceEngine`].
//!
//! # Quick start
//!
//! ```
//! use pcmax_core::Scheduler;
//! use pcmax_ptas::Ptas;
//!
//! let inst = pcmax_core::Instance::new(vec![6, 6, 11, 11, 11, 2, 3], 3).unwrap();
//! let schedule = Ptas::new(0.3).unwrap().schedule(&inst).unwrap();
//! // The optimum is 17; epsilon = 0.3 certifies at most (1 + 1/4)·17 ≈ 21.
//! assert!(schedule.makespan(&inst) <= 21);
//! ```

pub mod chassis;
pub mod config;
pub mod dp;
pub mod driver;
pub mod params;
pub mod rounding;
pub mod space;
pub mod table;
pub mod trace;
pub mod uniform;

pub use chassis::Scenario;
pub use config::{enumerate_configs, Config};
pub use dp::{DpOutcome, DpProblem, DpSolver, IterativeDp, MemoizedDp, RegenerateConfigsDp};
pub use driver::{rounded_problem, BisectionLog, Ptas, PtasOutput};
pub use params::EpsilonParams;
pub use rounding::{JobPartition, PcmaxRounding, RoundedLongJobs, Rounding};
pub use space::{PcmaxSpace, QSpace, SpaceEngine, StateSpace};
pub use table::{decode_into, BlockPlan, DpScratch, DpTable};
pub use trace::{dp_trace, DpTrace};
pub use uniform::QPtas;

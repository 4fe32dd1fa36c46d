//! `pcmax-audit` — the workspace's in-tree soundness tooling.
//!
//! Two engines, one goal: back the informal "the wavefront DP is race-free
//! because levels are barrier-separated and intra-level writes are disjoint"
//! argument with machine-checked evidence.
//!
//! * **Lint** ([`lexer`], [`rules`], [`lint`]): a source-level pass over the
//!   whole workspace built on a small in-tree Rust lexer (no `syn`; the
//!   build is offline). Enforces: no `unwrap`/`expect` in non-test library
//!   code, no `Ordering::Relaxed` without a justified site comment *and* an
//!   allowlist entry, no unexplained narrowing casts in DP index arithmetic,
//!   no trace hooks and no allocation in the cell-kernel hot loops, no
//!   `MutexGuard` held across a condvar wait, and no build artifacts
//!   tracked in git. Run with `cargo run -p pcmax-audit -- lint`.
//! * **Concurrency checker** (`race`, `explore`, `blocking`,
//!   `dpor`, `feature = "audit"`): a happens-before race detector
//!   (per-thread vector clocks) over the serialized traces produced by
//!   `pcmax_parallel::sync::audit`'s turn-based scheduler, a blocking
//!   analysis (lock-order cycles, lost wakeups) over the same traces, and
//!   two exploration modes — seeded-random sweeps and systematic DPOR
//!   enumeration with sleep sets that covers every non-equivalent schedule
//!   of a workload up to a budget and shrinks any failure to a minimal
//!   replayable decision script. The regression suite in `tests/` replays
//!   the instrumented executors on the paper's DP and asserts zero races,
//!   zero blocking findings, and bit-identical tables against the
//!   sequential solver.

pub mod lexer;
pub mod lint;
pub mod rules;

#[cfg(feature = "audit")]
pub mod blocking;
#[cfg(feature = "audit")]
pub mod dpor;
#[cfg(feature = "audit")]
pub mod explore;
#[cfg(feature = "audit")]
pub mod race;

//! Pool-health metric handles for the parallel executors.
//!
//! Aggregated, always-on counterparts of the `pcmax-trace` pool
//! instrumentation: the park/wake instants and the per-worker busy time
//! under the `chunk` spans that the trace records as timeline events are
//! accumulated here as process totals, so `pcmax compare` can report
//! busy%/parks columns without an active trace session (see DESIGN.md §4e).
//!
//! Recording sites live at the existing `sync` seam and in the wavefront
//! sweep — never inside the per-cell kernel loops (the `trace-hot` lint in
//! `pcmax-audit` enforces that for `inc`/`observe` just as it does for
//! trace hooks).

use pcmax_metrics::{family, Counter, Family};

/// Condvar waits entered at the `sync` seam's `trace_park`, process-wide:
/// the wavefront pool's level and barrier waits, which each sweep also
/// sums into `SolveStats::pool_parks`, and the session engine's workers
/// waiting for a job on the admission queue, which no solve reports.
pub static POOL_PARKS: Counter = Counter::new(
    "pcmax_pool_parks_total",
    "Condvar waits of wavefront pool workers and of engine workers awaiting a job",
);

/// Condvar waits returned from at the `sync` seam's `trace_wake`: the
/// counterpart of [`POOL_PARKS`], over the same sites.
pub static POOL_WAKES: Counter = Counter::new(
    "pcmax_pool_wakes_total",
    "Condvar wait returns of wavefront pool workers and of engine workers awaiting a job",
);

/// Per-worker busy time, in nanoseconds, summed over all chunks the worker
/// executed. Divide by [`POOL_EXTENT_NANOS`] for a busy fraction.
pub static WORKER_BUSY_NANOS: Family<Counter> = family(
    "pcmax_worker_busy_nanos_total",
    "Per-worker busy time in nanoseconds across all wavefront sweeps",
    "worker",
);

/// Wall-clock sweep extent times participating workers, in nanoseconds —
/// the denominator of the pool busy fraction (each worker could at most be
/// busy for the whole sweep).
pub static POOL_EXTENT_NANOS: Counter = Counter::new(
    "pcmax_pool_extent_nanos_total",
    "Sweep wall-clock extent times worker count, in nanoseconds",
);

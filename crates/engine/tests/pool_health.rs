//! Pool health after wind-down: every park the persistent pool enters must
//! be matched by a wake (no worker left asleep, no spurious wake counted),
//! and the traced solve path must surface per-worker utilization so
//! `pcmax compare` can print it.

use pcmax_core::{Instance, SolveRequest};
use pcmax_engine::{build, SolverParams};
use pcmax_workloads::{generate, Distribution, Family};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// ε at which every probe table of [`instance`] crosses the serial cutoff.
const EPSILON: f64 = 0.2;

fn instance() -> Instance {
    // Same instance as the wavefront_stats suite: at ε = 0.2 its one probe
    // table (120,959 cells, 170 transitions, 21 outer levels) holds about
    // 10⁶ cell-transitions per outer level, above the wavefront's serial
    // cutoff of 10⁵, so the solves below really run the pool (smaller
    // tables sweep inline and leave every pool counter at zero).
    generate(Family::new(10, 40, Distribution::U1To100), 1)
}

/// The trace runtime is a process-global singleton: tests that start a
/// session must not overlap, and tests that run a pool must not run during
/// one either — their park instants would land in the traced test's
/// timeline and break its strict park-count equality.
fn trace_serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn pool_parks_equal_wakes_after_wind_down_across_thread_counts() {
    let _serial = trace_serial();
    let inst = instance();
    for threads in [2, 4] {
        let params = SolverParams {
            epsilon: EPSILON,
            threads: Some(threads),
            ..SolverParams::default()
        };
        let solver = build("par-ptas", &params).unwrap();
        let report = solver.solve(&SolveRequest::new(&inst)).unwrap();
        assert!(report.stats.dp_levels_swept > 0, "threads = {threads}");
        assert!(report.stats.pool_parks > 0, "threads = {threads}: pooled");
        assert_eq!(
            report.stats.pool_parks, report.stats.pool_wakes,
            "threads = {threads}: a park without a wake means a worker was \
             left asleep (or a wake was counted outside the barrier protocol)"
        );
    }
}

#[test]
fn kernel_allocations_stay_per_worker_not_per_cell() {
    // The runtime counterpart of the `alloc-hot` lint: the cell kernel may
    // allocate its per-worker buffers once per bisection probe, never per
    // cell. A per-cell allocation would scale the counter with dp_cells
    // (tens of thousands here); per-worker scales with threads × probes.
    // Each solve runs on a thread of its own: a thread keeps its DP arena,
    // kernel buffers included, between solves.
    let _serial = trace_serial();
    let inst = instance();
    for threads in [2, 4] {
        let params = SolverParams {
            epsilon: EPSILON,
            threads: Some(threads),
            ..SolverParams::default()
        };
        let solver = build("par-ptas", &params).unwrap();
        let report = std::thread::scope(|s| {
            s.spawn(|| solver.solve(&SolveRequest::new(&inst)).unwrap())
                .join()
                .unwrap()
        });
        assert!(report.stats.dp_cells > 100, "threads = {threads}");
        assert!(
            report.stats.dp_kernel_allocs <= threads as u64 * report.stats.bisection_probes.max(1),
            "threads = {threads}: {} kernel allocations for {} probes — the \
             kernel is allocating per cell, not per worker",
            report.stats.dp_kernel_allocs,
            report.stats.bisection_probes
        );
        assert!(
            report.stats.dp_kernel_allocs >= threads as u64,
            "threads = {threads}: every pool worker holds a buffer"
        );
    }
}

#[test]
fn traced_parallel_solve_yields_per_worker_utilization() {
    let _serial = trace_serial();
    let inst = instance();
    let params = SolverParams {
        epsilon: EPSILON,
        threads: Some(4),
        ..SolverParams::default()
    };
    let solver = build("par-ptas", &params).unwrap();
    // Trace via the primitive request hook rather than the session engine:
    // this test pins the strict `lane parks == stats.pool_parks` equality
    // of the *solver pool* seam, and an engine worker's own queue parks
    // would land in the same timeline.
    let session = pcmax_trace::Session::start().expect("no session active");
    let req = SolveRequest::new(&inst).with_trace(Arc::new(pcmax_trace::GlobalSink));
    let report = solver.solve(&req).unwrap();
    let timeline = session.finish();
    timeline.validate().unwrap();
    assert!(report.stats.dp_cells > 0);

    let lanes = pcmax_trace::summary::utilization(&timeline);
    assert!(
        lanes.len() >= 2,
        "a pooled solve must produce a lane per worker, got {}",
        lanes.len()
    );
    let busy: u64 = lanes.iter().map(|l| l.busy_nanos).sum();
    assert!(busy > 0, "some lane must have measured busy time");

    // The timeline's park/wake instants must agree with the pool counters
    // the stats path reports — same seam, same sites.
    let parks: usize = lanes.iter().map(|l| l.parks).sum();
    assert_eq!(parks as u64, report.stats.pool_parks);

    // The rendered summary is what `pcmax compare` prints; it must mention
    // every lane and the busy column.
    let rendered = pcmax_trace::summary::render(&timeline);
    assert!(rendered.contains("busy"));
}

#[test]
fn second_concurrent_trace_session_is_rejected() {
    let _serial = trace_serial();
    let inst = instance();
    let solver = build("lpt", &SolverParams::default()).unwrap();
    let session = pcmax_trace::Session::start().expect("no session active");
    // The trace runtime is a process-global singleton: while one session is
    // live, a second caller cannot start recording.
    assert!(pcmax_trace::Session::start().is_none());
    drop(session.finish());

    // After wind-down the traced path works again.
    let session = pcmax_trace::Session::start().expect("wind-down must release the runtime");
    let req = SolveRequest::new(&inst).with_trace(Arc::new(pcmax_trace::GlobalSink));
    let report = solver.solve(&req).unwrap();
    let timeline = session.finish();
    assert!(report.makespan > 0);
    timeline.validate().unwrap();
}

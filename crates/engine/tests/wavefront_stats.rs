//! The wavefront hot-path counters (levels swept, cells, pool park/wake,
//! kernel allocations) surface through the engine registry's `SolveReport`
//! for the parallel PTAS — and stay zero for the sequential one.

use pcmax_core::{Instance, SolveRequest};
use pcmax_engine::{build, SolverParams};
use pcmax_workloads::{generate, Distribution, Family};

fn instance() -> Instance {
    Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3, 23, 29], 4).unwrap()
}

#[test]
fn parallel_ptas_reports_wavefront_counters() {
    // At ε = 0.2 this instance's one probe table (120,959 cells, 170
    // transitions, 21 outer levels) holds about 10⁶ cell-transitions per
    // outer level, above the wavefront's serial cutoff of 10⁵, so the pool
    // really runs.
    let inst = generate(Family::new(10, 40, Distribution::U1To100), 1);
    let params = SolverParams {
        epsilon: 0.2,
        threads: Some(4),
    };
    let solver = build("par-ptas", &params).unwrap();
    let report = solver.solve(&SolveRequest::new(&inst)).unwrap();
    let stats = &report.stats;
    assert!(stats.dp_cells > 0, "wavefront must count its DP cells");
    assert!(stats.dp_levels_swept > 0, "wavefront must count its levels");
    assert!(stats.pool_parks > 0, "the pool must park");
    assert_eq!(
        stats.pool_parks, stats.pool_wakes,
        "every entered pool wait must return"
    );
    assert!(
        stats.dp_kernel_allocs <= 4 * stats.bisection_probes.max(1),
        "cell kernel must not allocate beyond per-worker buffers"
    );
    assert!(
        stats.dp_phase_cells_per_sec().is_some(),
        "throughput must be derivable from the report's dp phase"
    );
}

#[test]
fn sequential_ptas_leaves_wavefront_counters_zero() {
    let inst = instance();
    let solver = build("ptas", &SolverParams::default()).unwrap();
    let report = solver.solve(&SolveRequest::new(&inst)).unwrap();
    assert_eq!(report.stats.dp_cells, 0);
    assert_eq!(report.stats.dp_levels_swept, 0);
    assert_eq!(report.stats.pool_parks, 0);
    assert_eq!(report.stats.pool_wakes, 0);
    assert!(report.stats.dp_cells_per_sec().is_none());
}

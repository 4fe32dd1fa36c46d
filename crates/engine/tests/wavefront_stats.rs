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
    // At ε = 0.2 every probe table of this instance holds 4×10⁴–5×10⁴
    // cell-transitions per level, above the wavefront's serial cutoff, so
    // the pool really runs.
    let inst = generate(Family::new(10, 30, Distribution::U1To100), 1);
    let params = SolverParams {
        epsilon: 0.2,
        threads: Some(4),
        ..SolverParams::default()
    };
    // `spec-ptas` runs its probe rounds on the same pool and must merge
    // every probe's counters, not only its entries and tables.
    for name in ["par-ptas", "spec-ptas"] {
        let solver = build(name, &params).unwrap();
        let report = solver.solve(&SolveRequest::new(&inst)).unwrap();
        let stats = &report.stats;
        assert!(
            stats.dp_cells > 0,
            "{name}: wavefront must count its DP cells"
        );
        assert!(
            stats.dp_levels_swept > 0,
            "{name}: wavefront must count its levels"
        );
        assert!(stats.pool_parks > 0, "{name}: the pool must park");
        assert_eq!(
            stats.pool_parks, stats.pool_wakes,
            "{name}: every entered pool wait must return"
        );
        assert!(
            stats.dp_kernel_allocs <= 4 * stats.bisection_probes.max(1),
            "{name}: cell kernel must not allocate beyond per-worker buffers"
        );
        assert!(
            stats.dp_phase_cells_per_sec().is_some(),
            "{name}: throughput must be derivable from the report's dp phase"
        );
    }
}

#[test]
fn spec_ptas_takes_its_thread_count_from_construction() {
    // Same instance and ε as above, so every probe table is above the
    // serial cutoff: a sweep allowed two workers would hold two kernel
    // buffers. One thread means one buffer per probe arena at most.
    let inst = generate(Family::new(10, 30, Distribution::U1To100), 1);
    let params = SolverParams {
        epsilon: 0.2,
        threads: Some(1),
        ..SolverParams::default()
    };
    let report = build("spec-ptas", &params)
        .unwrap()
        .solve(&SolveRequest::new(&inst))
        .unwrap();
    let stats = &report.stats;
    assert!(stats.bisection_probes > 1, "want a multi-probe search");
    assert!(
        stats.dp_kernel_allocs <= stats.bisection_probes,
        "{} kernel allocations over {} probes: the sweeps ran on more than \
         the one thread the solver was built with",
        stats.dp_kernel_allocs,
        stats.bisection_probes
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

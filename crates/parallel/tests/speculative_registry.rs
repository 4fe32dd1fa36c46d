//! `spec-ptas` aggregates each solve into the process-wide metrics registry
//! through the chassis, like every other dual-approximation solve. This is a
//! test binary of its own: the registry is process-global, so a solve
//! running concurrently in another test would move the counters under the
//! check.

use pcmax_core::{SolveRequest, Solver};
use pcmax_metrics::SampleValue;
use pcmax_parallel::SpeculativePtas;
use pcmax_workloads::lpt_adversarial;

/// The registry total of the counter `name` (0 before its first increment).
fn counter(name: &str) -> u64 {
    pcmax_metrics::snapshot()
        .samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

#[test]
fn one_solve_moves_the_registry_by_exactly_its_own_stats() {
    // `LB` 29 is infeasible at ε = 0.3, so the search bisects on.
    let inst = lpt_adversarial(10, 1);
    let probes_before = counter("pcmax_bisection_probes_total");
    let cells_before = counter("pcmax_dp_cells_total");
    let report = SpeculativePtas::new(0.3, 4)
        .unwrap()
        .solve(&SolveRequest::new(&inst))
        .unwrap();
    let stats = &report.stats;
    assert!(stats.bisection_probes > 1, "want a multi-probe search");
    assert!(stats.dp_cells > 0, "want real DP sweeps");
    assert_eq!(
        counter("pcmax_bisection_probes_total") - probes_before,
        stats.bisection_probes
    );
    assert_eq!(
        counter("pcmax_dp_cells_total") - cells_before,
        stats.dp_cells
    );
}

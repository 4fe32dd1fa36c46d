//! The solver-engine surface: build solvers from the registry by name,
//! attach a budget, and read the structured `SolveStats` back — including
//! the DP-scratch reuse counters that show a thread allocates the PTAS's
//! dense table once and reuses it across every probe of every solve.

use pcmax::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inst = generate(Family::new(10, 50, Distribution::U1To100), 42);
    println!(
        "instance: n = {} jobs on m = {} machines\n",
        inst.jobs(),
        inst.machines()
    );

    println!(
        "{:<12}{:>10}{:>8}{:>14}{:>10}{:>8}",
        "solver", "makespan", "probes", "dp entries", "tables", "reused"
    );
    for spec in comparators() {
        let solver = spec.build(&SolverParams::default())?;
        let req =
            SolveRequest::new(&inst).with_budget(Budget::with_timeout(Duration::from_secs(30)));
        let report = solver.solve(&req)?;
        report.schedule.validate(&inst)?;
        let s = &report.stats;
        println!(
            "{:<12}{:>10}{:>8}{:>14}{:>10}{:>8}",
            spec.name,
            report.makespan,
            s.bisection_probes,
            s.dp_entries_touched,
            s.dp_tables_allocated,
            s.dp_tables_reused
        );
    }

    // The headline invariant: this thread already ran the PTAS above and
    // kept its DP arena, so a second solve allocates no table and every
    // probe reuses it.
    let report =
        pcmax::engine::build("ptas", &SolverParams::default())?.solve(&SolveRequest::new(&inst))?;
    assert_eq!(report.stats.dp_tables_allocated, 0);
    assert_eq!(report.stats.dp_tables_reused, report.stats.bisection_probes);
    println!(
        "\nptas again: {} probes, {} table allocations (reused {}x)",
        report.stats.bisection_probes,
        report.stats.dp_tables_allocated,
        report.stats.dp_tables_reused
    );
    Ok(())
}

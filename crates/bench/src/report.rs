//! Plain-text rendering of the experiment results (the "rows/series the
//! paper reports") plus JSON persistence.

use crate::experiments::SpeedupFigure;
use crate::ratios::RatioFigure;
use std::fmt::Write as _;

/// Renders a speedup figure as three aligned panels, mirroring the paper's
/// (a) speedup vs PTAS, (b) speedup vs IP, (c) running times.
pub fn render_speedup(fig: &SpeedupFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (m={}, n={}, {} instances/family, eps=0.3) ==",
        fig.label, fig.machines, fig.jobs, fig.reps
    );
    // Every cell opens with a space, so a value wider than its column
    // (speedups vs IP reach six digits) never runs into its neighbour.
    let procs = fig
        .rows
        .first()
        .map(|r| r.procs.clone())
        .unwrap_or_default();
    let header: String = procs
        .iter()
        .map(|p| format!(" {:>7}", format!("P={p}")))
        .collect();

    let _ = writeln!(out, "\n(a) average speedup vs sequential PTAS");
    let _ = writeln!(out, "{:<22}{header}", "family");
    for row in &fig.rows {
        let cells: String = row
            .speedup_vs_ptas
            .iter()
            .map(|s| format!(" {s:>7.2}"))
            .collect();
        let _ = writeln!(out, "{:<22}{cells}", row.family.dist.to_string());
    }

    let _ = writeln!(out, "\n(b) average speedup vs IP (exact solver)");
    let _ = writeln!(out, "{:<22}{header}", "family");
    for row in &fig.rows {
        let cells: String = row
            .speedup_vs_ip
            .iter()
            .map(|s| format!(" {s:>7.1}"))
            .collect();
        let _ = writeln!(
            out,
            "{:<22}{cells}  (IP proven: {:.0}%)",
            row.family.dist.to_string(),
            row.ip_proven_frac * 100.0
        );
    }

    // Milliseconds: the PTAS and P columns of the smaller figures solve in
    // tens of microseconds, which four decimals of seconds print as zero.
    let _ = writeln!(out, "\n(c) average running times [ms]");
    let _ = writeln!(out, "{:<22}{:>10}{:>10}{}", "family", "IP", "PTAS", header);
    for row in &fig.rows {
        let cells: String = row
            .time_par_s
            .iter()
            .map(|t| format!(" {:>7.3}", t * 1e3))
            .collect();
        let _ = writeln!(
            out,
            "{:<22} {:>9.3} {:>9.3}{cells}",
            row.family.dist.to_string(),
            row.time_ip_s * 1e3,
            row.time_ptas_s * 1e3
        );
    }
    out
}

/// Renders a ratio figure (one panel of Fig. 5) plus its Table II/III-style
/// instance listing. The solver columns come from the figure itself, which
/// enumerated the engine registry.
pub fn render_ratios(fig: &RatioFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", fig.label);
    let header: String = fig.solvers.iter().map(|s| format!("{s:>10}")).collect();
    let _ = writeln!(out, "{:<5}{:<46}{:>9}{header}", "inst", "family", "OPT");
    for c in &fig.cases {
        let opt = if c.optimum_proven {
            format!("{}", c.optimum)
        } else {
            format!("{}*", c.optimum)
        };
        let cells: String = c
            .ratios
            .iter()
            .map(|r| format!("{:>10.3}", r.ratio))
            .collect();
        let _ = writeln!(out, "{:<5}{:<46}{opt:>9}{cells}", c.label, c.description);
    }
    if fig.cases.iter().any(|c| !c.optimum_proven) {
        let _ = writeln!(
            out,
            "(* = exact solver hit its budget; denominator is its proven lower bound,\n     so these ratios are upper bounds)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::FamilyRow;
    use crate::ratios::{RatioCase, SolverRatio};
    use pcmax_workloads::{Distribution, Family};

    #[test]
    fn speedup_rendering_contains_all_panels() {
        let fig = SpeedupFigure {
            label: "Figure X".into(),
            machines: 4,
            jobs: 8,
            reps: 1,
            rows: vec![FamilyRow {
                family: Family::new(4, 8, Distribution::U1To10),
                procs: vec![2, 4],
                speedup_vs_ptas: vec![1.5, 2.5],
                speedup_vs_ip: vec![10.0, 20.0],
                time_ip_s: 1.0,
                time_ptas_s: 0.1,
                time_par_s: vec![0.066, 0.04],
                ip_proven_frac: 1.0,
            }],
        };
        let s = render_speedup(&fig);
        assert!(s.contains("(a)") && s.contains("(b)") && s.contains("(c)"));
        assert!(s.contains("U(1,10)"));
        assert!(s.contains("P=2"));
        assert!(s.contains("running times [ms]"), "{s}");
        assert!(s.contains("  1000.000   100.000  66.000  40.000"), "{s}");
    }

    #[test]
    fn six_digit_speedups_keep_their_columns_apart() {
        let fig = SpeedupFigure {
            label: "Figure X".into(),
            machines: 4,
            jobs: 8,
            reps: 1,
            rows: vec![FamilyRow {
                family: Family::new(4, 8, Distribution::U1To10),
                procs: vec![2, 4],
                speedup_vs_ptas: vec![1.5, 2.5],
                speedup_vs_ip: vec![136_498.2, 213_665.4],
                time_ip_s: 1.0,
                time_ptas_s: 0.1,
                time_par_s: vec![0.066, 0.04],
                ip_proven_frac: 1.0,
            }],
        };
        let s = render_speedup(&fig);
        assert!(s.contains(" 136498.2 213665.4 "), "{s}");
    }

    #[test]
    fn ratio_rendering_flags_unproven() {
        let fig = RatioFigure {
            label: "panel".into(),
            solvers: vec!["par-ptas", "lpt", "ls"],
            cases: vec![RatioCase {
                label: "I1".into(),
                description: "d".into(),
                optimum: 100,
                optimum_proven: false,
                ratios: vec![
                    SolverRatio {
                        solver: "par-ptas",
                        ratio: 1.01,
                    },
                    SolverRatio {
                        solver: "lpt",
                        ratio: 1.1,
                    },
                    SolverRatio {
                        solver: "ls",
                        ratio: 1.3,
                    },
                ],
            }],
        };
        let s = render_ratios(&fig);
        assert!(s.contains("100*"));
        assert!(s.contains("upper bounds"));
        assert!(s.contains("par-ptas") && s.contains("lpt"));
    }
}

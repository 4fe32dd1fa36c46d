//! CLI for `pcmax-audit`.
//!
//! * `cargo run -p pcmax-audit -- lint [--strict-stale]` — run the
//!   workspace lint; exits 1 on violations, 0 when clean. Stale allowlist
//!   entries are warnings by default and failures under `--strict-stale`
//!   (CI uses the strict mode so burned-down entries cannot linger).
//! * `cargo run -p pcmax-audit --features audit -- race [SEEDS]` — explore
//!   SEEDS (default 64) random interleavings of the instrumented wavefront
//!   DP and report the race + blocking (lock-order cycle, lost-wakeup)
//!   verdict. Without the feature the subcommand explains how to enable it.
//! * `cargo run -p pcmax-audit --features audit -- dpor [BUDGET]` — the
//!   systematic mode: exhaustively enumerates the non-equivalent schedules
//!   of the fork/join microworkload (count checked against the hand-derived
//!   bound), proves the explorer finds an injected order-dependent race
//!   (printing its minimal replayable schedule), and exhausts the persistent
//!   pool's schedule space on a one-job instance within BUDGET (default
//!   2000) runs, failing if the budget cuts it off.
//! * `cargo run -p pcmax-audit -- trace-check FILE` — validate an exported
//!   Chrome-trace JSON timeline (parses, non-empty, required fields,
//!   balanced per-thread spans); exits 1 on a malformed trace.
//! * `cargo run -p pcmax-audit -- metrics-check FILE` — validate an exported
//!   metrics snapshot, either the JSON form (`pcmax metrics --format json`)
//!   or the Prometheus text form (`--format prom`); checks internal
//!   consistency (sorted samples, cumulative buckets, count/sum coherence)
//!   and exits 1 on a malformed export. The format is sniffed from the
//!   content, not the file name.

use std::env;
use std::process::ExitCode;

const USAGE: &str = "usage: pcmax-audit <lint [--strict-stale] | race [SEEDS] | dpor [BUDGET] | \
     trace-check FILE | metrics-check FILE>";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(args.iter().any(|a| a == "--strict-stale")),
        Some("race") => run_race(args.get(1).map(String::as_str)),
        Some("dpor") => run_dpor(args.get(1).map(String::as_str)),
        Some("trace-check") => run_trace_check(args.get(1).map(String::as_str)),
        Some("metrics-check") => run_metrics_check(args.get(1).map(String::as_str)),
        Some(other) => {
            eprintln!("unknown subcommand {other:?}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_trace_check(path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("trace-check needs a Chrome-trace JSON file");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pcmax-audit: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match pcmax_trace::chrome::validate(&text) {
        Ok(stats) => {
            println!(
                "pcmax-audit trace-check: OK — {} events, {} threads, {} complete \
                 spans, {} instants, {} counters",
                stats.events, stats.threads, stats.complete_spans, stats.instants, stats.counters
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("pcmax-audit trace-check FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_metrics_check(path: Option<&str>) -> ExitCode {
    use pcmax_metrics::export;

    let Some(path) = path else {
        eprintln!("metrics-check needs an exported metrics snapshot (JSON or Prometheus text)");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pcmax-audit: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    // Sniff the format: the JSON exporter always emits an object with the
    // `pcmax-metrics/1` format tag; everything else is treated as
    // Prometheus text exposition.
    let result = if text.trim_start().starts_with('{') {
        export::from_json_str(&text)
            .map_err(|e| format!("json: {e}"))
            .and_then(|snap| export::validate_snapshot(&snap).map_err(|e| format!("json: {e}")))
            .map(|stats| ("json", stats))
    } else {
        export::validate_prometheus(&text)
            .map_err(|e| format!("prometheus: {e}"))
            .map(|stats| ("prometheus", stats))
    };
    match result {
        Ok((format, stats)) => {
            println!(
                "pcmax-audit metrics-check: OK — {format} format, {} samples, {} histograms",
                stats.samples, stats.histograms
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("pcmax-audit metrics-check FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint(strict_stale: bool) -> ExitCode {
    let cwd = match env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("pcmax-audit: cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match pcmax_audit::lint::workspace_root(&cwd) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pcmax-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match pcmax_audit::lint::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pcmax-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let severity = if strict_stale { "error" } else { "warning" };
    for entry in &outcome.stale {
        eprintln!(
            "{severity}: stale lint.allow entry `{} {}` ({}) suppressed nothing — delete it",
            entry.rule, entry.path, entry.reason
        );
    }
    for v in &outcome.violations {
        println!("{v}");
    }
    let stale_fails = strict_stale && !outcome.stale.is_empty();
    if outcome.clean() && !stale_fails {
        println!(
            "pcmax-audit lint: {} files scanned, 0 violations",
            outcome.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "pcmax-audit lint: {} files scanned, {} violation(s), {} stale entr(ies)",
            outcome.files_scanned,
            outcome.violations.len(),
            outcome.stale.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(not(feature = "audit"))]
fn run_race(_seeds: Option<&str>) -> ExitCode {
    eprintln!(
        "pcmax-audit: the race explorer needs the instrumented build:\n    \
         cargo run -p pcmax-audit --features audit -- race"
    );
    ExitCode::from(2)
}

#[cfg(feature = "audit")]
fn run_race(seeds: Option<&str>) -> ExitCode {
    use pcmax_parallel::ParallelDp;
    use pcmax_ptas::dp::{DpProblem, DpSolver, IterativeDp};

    let seeds: u64 = match seeds.unwrap_or("64").parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("pcmax-audit: bad seed count: {e}");
            return ExitCode::from(2);
        }
    };
    // The paper's worked example: 2 jobs of size 2 and 3 of size 4 (unit 2),
    // target makespan 30 — small enough that every interleaving finishes in
    // milliseconds, rich enough to exercise multi-entry levels.
    let problem = {
        let mut counts = vec![0u32; 16];
        counts[2] = 2;
        counts[4] = 3;
        DpProblem::new(counts, 2, 30, 64)
    };
    let expected = match IterativeDp.solve(&problem) {
        Ok(out) => out.machines,
        Err(e) => {
            eprintln!("pcmax-audit: sequential reference failed: {e}");
            return ExitCode::from(2);
        }
    };
    let report = pcmax_audit::explore::sweep(
        1,
        seeds,
        || {
            ParallelDp::with_threads(3)
                .solve(&problem)
                .map(|out| out.machines)
                .unwrap_or(u32::MAX)
        },
        |seed, &got| {
            if got != expected {
                eprintln!("seed {seed}: OPT {got} != sequential {expected}");
            }
        },
    );
    println!(
        "pcmax-audit race: {} schedules ({} distinct), {} events, {} threads max, \
         {} race(s), {} lock-order cycle(s), {} lost-wakeup candidate(s)",
        report.schedules,
        report.distinct_histories,
        report.events,
        report.max_threads,
        report.races.len(),
        report.lock_cycles.len(),
        report.lost_wakeups.len()
    );
    for (seed, race) in &report.races {
        println!("  seed {seed}: {race}");
    }
    for (seed, cycle) in &report.lock_cycles {
        println!("  seed {seed}: lock-order cycle through objects {cycle:?}");
    }
    for (seed, lw) in &report.lost_wakeups {
        println!("  seed {seed}: {lw}");
    }
    if report.races.is_empty() && report.lock_cycles.is_empty() && report.lost_wakeups.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(not(feature = "audit"))]
fn run_dpor(_budget: Option<&str>) -> ExitCode {
    eprintln!(
        "pcmax-audit: the DPOR explorer needs the instrumented build:\n    \
         cargo run -p pcmax-audit --features audit -- dpor"
    );
    ExitCode::from(2)
}

#[cfg(feature = "audit")]
fn run_dpor(budget: Option<&str>) -> ExitCode {
    use pcmax_audit::dpor::workloads::{
        fork_join_two_workers, injected_rare_race, FORK_JOIN_TWO_WORKERS_SCHEDULES,
    };
    use pcmax_audit::explore::sweep_exhaustive;
    use pcmax_parallel::wavefront::bucketed_sweep_space;
    use pcmax_ptas::dp::DpProblem;
    use pcmax_ptas::space::PcmaxSpace;
    use pcmax_ptas::table::DpScratch;

    let budget: usize = match budget.unwrap_or("2000").parse() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("pcmax-audit: bad schedule budget: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;

    // 1. Coverage calibration: the 2-worker fork/join microworkload has a
    //    hand-derived bound of exactly 2 non-equivalent schedules; the
    //    explorer must hit it — no more (sleep sets work), no fewer
    //    (backtracking works).
    let micro = sweep_exhaustive(64, fork_join_two_workers, |_, _| {});
    let micro_ok =
        micro.complete && micro.is_clean() && micro.schedules == FORK_JOIN_TWO_WORKERS_SCHEDULES;
    println!(
        "pcmax-audit dpor: fork/join microworkload — {} schedules \
         (hand-derived bound {FORK_JOIN_TWO_WORKERS_SCHEDULES}), complete={} … {}",
        micro.schedules,
        micro.complete,
        if micro_ok { "OK" } else { "FAILED" }
    );
    failed |= !micro_ok;

    // 2. Detector liveness: an injected order-dependent race that hides in
    //    one schedule class must be found, and its schedule shrunk to a
    //    replayable minimal script.
    let injected = sweep_exhaustive(512, injected_rare_race, |_, _| {});
    match &injected.counterexample {
        Some(cx) => println!(
            "pcmax-audit dpor: injected race found after {} schedules — {}\n    \
             minimal replay: run_schedule(&{:?})",
            injected.schedules, cx.race, cx.schedule
        ),
        None => {
            println!("pcmax-audit dpor: injected race NOT found — FAILED");
            failed = true;
        }
    }

    // 3. The real executor: the persistent pool's level barrier on a
    //    one-job instance, swept up to the budget. The minimal instance is
    //    fully enumerable well inside the default, so the sweep must finish.
    let problem = {
        let mut counts = vec![0u32; 16];
        counts[2] = 1;
        DpProblem::new(counts, 2, 30, 64)
    };
    let pool = sweep_exhaustive(
        budget,
        || {
            let mut scratch = DpScratch::new();
            let mut table = match problem.build_table_in(&mut scratch) {
                Ok(t) => t,
                Err(e) => panic!("table build failed: {e}"),
            };
            let configs = problem.configs_with_offsets(&table);
            table.values[0] = 0;
            bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 2, &mut scratch);
            table.values
        },
        |schedule, values| {
            assert_eq!(
                values,
                &[0, 1],
                "schedule {schedule:?}: table diverged from the sequential DP"
            );
        },
    );
    let pool_ok = pool.complete && pool.is_clean();
    println!(
        "pcmax-audit dpor: persistent pool — {} schedules, complete={}, {} race(s), \
         {} cycle(s), {} lost wakeup(s), {} deadlock(s) … {}",
        pool.schedules,
        pool.complete,
        pool.races.len(),
        pool.cycles.len(),
        pool.lost_wakeups.len(),
        pool.deadlocks.len(),
        if pool_ok { "OK" } else { "FAILED" }
    );
    if let Some(cx) = &pool.counterexample {
        println!("    minimal replay: run_schedule(&{:?})", cx.schedule);
    }
    failed |= !pool_ok;

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

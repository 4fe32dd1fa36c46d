//! Command implementations, all routed through the engine registry
//! (`pcmax-engine`): `solve` builds whatever `--algo` names, `compare`
//! enumerates every polynomial comparator the registry knows about. Every
//! solve goes through the submission-based session engine
//! ([`pcmax_engine::Engine`]); `serve` and `client` drive the same engine
//! over the `pcmax-wire/1` daemon.

use crate::args::{Command, Source};
use crate::io::load;
use pcmax_core::wire::{WireOutcome, WireSolve};
use pcmax_core::{json, ApproxRatio, Budget, Instance, MakespanBounds, Schedule, SolveReport};
use pcmax_engine::{
    comparators_for, lookup, Engine, EngineConfig, ScenarioKind, SolverKind, SolverParams,
    Submission,
};
use pcmax_metrics::{export, family, Family, Histogram, Snapshot};
use pcmax_simcore::{simulate_ptas, SimParams};
use pcmax_workloads::Distribution;
use std::time::Instant;

/// Runs `f` against a short-lived one-worker session engine and shuts it
/// down afterwards. The CLI's one-shot commands (and its strictly
/// sequential sweeps) submit and wait on every handle, so one worker keeps
/// the solve order — and therefore every metrics delta taken around a
/// solve — deterministic.
fn with_engine<T>(f: impl FnOnce(&Engine) -> Result<T, String>) -> Result<T, String> {
    let engine = Engine::with_config(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let out = f(&engine);
    engine.shutdown();
    out
}

/// Submits and blocks for the report, flattening both failure layers
/// (admission and solve) into the CLI's error strings.
fn submit_wait(engine: &Engine, sub: Submission) -> Result<SolveReport, String> {
    engine
        .submit(sub)
        .map_err(|e| e.to_string())?
        .wait()
        .map_err(|e| e.to_string())
}

/// Per-solver distribution of `makespan / denominator`, in permille
/// (ratio 1.234 records as 1234) — the scoreboard's quality column. Fed by
/// the `pcmax metrics` workload mix, where the denominator is the same
/// per-instance reference `pcmax compare` uses.
static SOLVE_RATIO_PERMILLE: Family<Histogram> = family(
    "pcmax_solve_ratio_permille",
    "Approximation ratio per solver, in permille of the per-instance reference",
    "solver",
);

/// Dispatches a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Generate(source) => {
            let inst = load(&source)?;
            println!("{}", json::to_string_pretty(&inst));
            Ok(())
        }
        Command::Bounds(source) => {
            let inst = load(&source)?;
            let b = MakespanBounds::of(&inst);
            println!(
                "n={} m={} total={} max={} LB={} UB={}",
                inst.jobs(),
                inst.machines(),
                inst.total_time(),
                inst.max_time(),
                b.lower,
                b.upper
            );
            Ok(())
        }
        Command::Solve {
            source,
            algo,
            eps,
            threads,
            budget,
            schedule,
        } => {
            let inst = load(&source)?;
            let (s, label) = solve_one(&inst, &algo, eps, threads, budget)?;
            println!("{label}: makespan {}", s.makespan(&inst));
            if schedule {
                print_schedule(&inst, &s);
                print!("{}", pcmax_core::render_gantt(&inst, &s, 60));
            }
            Ok(())
        }
        Command::Compare {
            source,
            family,
            metrics,
        } => {
            let inst = load(&source)?;
            compare(&inst, family.as_deref(), metrics.as_deref())
        }
        Command::Metrics {
            families,
            count,
            eps,
            threads,
            seed,
            format,
            out,
        } => metrics_run(
            &families,
            count,
            eps,
            threads,
            seed,
            format.as_deref(),
            out.as_deref(),
        ),
        Command::Simulate { source, procs, eps } => {
            let inst = load(&source)?;
            println!("{:<8}{:>10}", "procs", "speedup");
            for p in procs {
                let r = simulate_ptas(&inst, eps, SimParams::with_processors(p))
                    .map_err(|e| e.to_string())?;
                println!("{p:<8}{:>10.2}", r.speedup());
            }
            Ok(())
        }
        Command::Trace {
            source,
            algo,
            eps,
            threads,
            out,
            summary,
        } => {
            let inst = load(&source)?;
            trace(&inst, &algo, eps, threads, out.as_deref(), summary)
        }
        Command::Serve {
            addr,
            workers,
            capacity,
            cache,
        } => serve(addr, workers, capacity, cache),
        Command::ClientSolve {
            addr,
            algo,
            source,
            eps,
            threads,
            timeout_ms,
            repeat,
        } => {
            let inst = load(&source)?;
            client_solve(&addr, &algo, &inst, eps, threads, timeout_ms, repeat)
        }
        Command::ClientShutdown { addr } => client_shutdown(&addr),
    }
}

/// Runs the `pcmax-wire/1` daemon until a client sends `shutdown`.
fn serve(
    addr: String,
    workers: Option<usize>,
    capacity: usize,
    cache: usize,
) -> Result<(), String> {
    let mut engine = EngineConfig::default();
    if let Some(w) = workers {
        engine.workers = w;
    }
    engine.capacity = capacity;
    engine.cache_capacity = cache;
    let server = pcmax_serve::Server::bind(pcmax_serve::ServerConfig { addr, engine })
        .map_err(|e| format!("serve: {e}"))?;
    let local = server.local_addr().map_err(|e| format!("serve: {e}"))?;
    println!("pcmax-serve listening on {local} (pcmax-wire/1)");
    let totals = server.run().map_err(|e| format!("serve: {e}"))?;
    println!(
        "bye: served {} | cancelled {} | cache hits {} misses {}",
        totals.served, totals.cancelled, totals.cache_hits, totals.cache_misses
    );
    Ok(())
}

/// Sends `repeat` solve frames for one instance and prints each response
/// as one compact-JSON line (repeats exercise the server-side profile
/// cache: the second response reports `cache_hit: true`).
fn client_solve(
    addr: &str,
    algo: &str,
    inst: &Instance,
    eps: f64,
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    repeat: usize,
) -> Result<(), String> {
    let mut client =
        pcmax_serve::Client::connect(addr).map_err(|e| format!("client: connect {addr}: {e}"))?;
    for _ in 0..repeat {
        let response = client
            .solve(WireSolve {
                solver: algo.to_string(),
                eps,
                threads,
                timeout_ms,
                instance: inst.clone(),
            })
            .map_err(|e| format!("client: {e}"))?;
        println!("{}", json::to_string(&response));
        if let WireOutcome::Error { code, message } = &response.outcome {
            return Err(format!("client: solve failed ({code}): {message}"));
        }
    }
    Ok(())
}

/// Shuts a running daemon down and prints its `bye` frame.
fn client_shutdown(addr: &str) -> Result<(), String> {
    let client =
        pcmax_serve::Client::connect(addr).map_err(|e| format!("client: connect {addr}: {e}"))?;
    let bye = client.shutdown().map_err(|e| format!("client: {e}"))?;
    println!("{}", json::to_string(&bye));
    Ok(())
}

/// Solves once with the in-tree trace runtime attached, then exports the
/// merged timeline as Chrome-trace JSON (`--out`) and/or renders the ASCII
/// per-worker utilization summary (`--summary`).
fn trace(
    inst: &Instance,
    algo: &str,
    eps: f64,
    threads: Option<usize>,
    out: Option<&str>,
    summary: bool,
) -> Result<(), String> {
    let spec = lookup(algo).ok_or_else(|| {
        format!(
            "unknown algorithm {algo} (known: {})",
            pcmax_engine::names().join(", ")
        )
    })?;
    let params = SolverParams {
        epsilon: eps,
        threads,
    };
    // The trace session wraps the whole submission, so engine-side events
    // (queue park/wake, worker lanes) land in the same timeline as the
    // solver's own spans. Dropping the session on error clears the rings.
    let session = pcmax_trace::Session::start()
        .ok_or_else(|| "trace: a trace session is already active in this process".to_string())?;
    let report = with_engine(|engine| {
        submit_wait(
            engine,
            Submission::new(inst.clone(), spec.name)
                .with_params(params)
                .with_trace(std::sync::Arc::new(pcmax_trace::GlobalSink)),
        )
    })?;
    let timeline = session.finish();
    timeline.validate()?;
    println!(
        "{}: makespan {} | {} events on {} threads",
        spec.name,
        report.makespan,
        timeline.total_events(),
        timeline.lanes.len()
    );
    if let Some(path) = out {
        let text = pcmax_trace::chrome::to_json_string(&timeline);
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {path} ({} bytes) — open with ui.perfetto.dev",
            text.len()
        );
    }
    if summary {
        print!("{}", pcmax_trace::summary::render(&timeline));
    }
    Ok(())
}

fn solve_one(
    inst: &Instance,
    algo: &str,
    eps: f64,
    threads: Option<usize>,
    budget: Option<u64>,
) -> Result<(Schedule, String), String> {
    let spec = lookup(algo).ok_or_else(|| {
        format!(
            "unknown algorithm {algo} (known: {})",
            pcmax_engine::names().join(", ")
        )
    })?;
    let params = SolverParams {
        epsilon: eps,
        threads,
    };
    let report = with_engine(|engine| {
        let mut sub = Submission::new(inst.clone(), spec.name).with_params(params);
        if let Some(b) = budget {
            sub = sub.with_budget(Budget::unlimited().nodes(b));
        }
        submit_wait(engine, sub)
    })?;

    let mut label = match spec.kind {
        SolverKind::DualApprox | SolverKind::FixedMachines => format!("{}(eps={eps})", spec.name),
        _ => spec.name.to_string(),
    };
    if report.proven_optimal {
        if report.stats.bb_nodes > 0 {
            label.push_str(&format!(
                " (proven optimal, {} nodes)",
                report.stats.bb_nodes
            ));
        } else {
            label.push_str(" (proven optimal)");
        }
    } else if let Some(t) = report.certified_target {
        match spec.kind {
            SolverKind::Exact => label.push_str(&format!(
                " (budget hit: incumbent {}, lower bound {t})",
                report.makespan
            )),
            _ => label.push_str(&format!(" (certified target {t})")),
        }
    }
    Ok((report.schedule, label))
}

/// Maps a `--family` value to the scenario it names.
fn parse_family(family: &str) -> Result<ScenarioKind, String> {
    match family.to_ascii_lowercase().as_str() {
        "p" | "identical" | "pcmax" => Ok(ScenarioKind::Identical),
        "q" | "uniform" | "qcmax" => Ok(ScenarioKind::Uniform),
        "online" | "ls-online" => Ok(ScenarioKind::Online),
        other => Err(format!("unknown --family {other} (known: p, q, online)")),
    }
}

/// Sum of a counter metric across all its labels (e.g. the per-worker busy
/// counters of one family).
fn counter_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| match s.value {
            pcmax_metrics::SampleValue::Counter(v) => Some(v),
            _ => None,
        })
        .sum()
}

fn compare(inst: &Instance, family: Option<&str>, metrics: Option<&str>) -> Result<(), String> {
    let scenario = match family {
        Some(f) => parse_family(f)?,
        // Speeds on the instance imply the uniform comparison set; otherwise
        // the paper's identical-machine harness.
        None => {
            if inst.is_uniform() {
                ScenarioKind::Uniform
            } else {
                ScenarioKind::Identical
            }
        }
    };
    let params = SolverParams::default();

    struct Row {
        name: String,
        scenario: &'static str,
        makespan: u64,
        certified: Option<u64>,
        dt: std::time::Duration,
        busy_pct: String,
        parks: String,
    }
    let mut rows: Vec<Row> = Vec::new();
    let (denom, denom_label) = with_engine(|engine| {
        for spec in comparators_for(scenario) {
            // Pool health comes from the always-on metrics registry
            // (per-solver deltas around each strictly sequential solve — the
            // one-worker engine guarantees the order). The profile cache is
            // off so no solver inherits another's DP work and the timing
            // column stays an honest per-solver measurement.
            let before = pcmax_metrics::snapshot();
            let t0 = Instant::now();
            let report = submit_wait(
                engine,
                Submission::new(inst.clone(), spec.name)
                    .with_params(params.clone())
                    .without_cache(),
            )?;
            let dt = t0.elapsed();
            let after = pcmax_metrics::snapshot();
            let name = match spec.kind {
                SolverKind::DualApprox => format!("{}(eps={})", spec.name, params.epsilon),
                _ => spec.name.to_string(),
            };
            let busy = counter_sum(&after, "pcmax_worker_busy_nanos_total")
                .saturating_sub(counter_sum(&before, "pcmax_worker_busy_nanos_total"));
            let extent = counter_sum(&after, "pcmax_pool_extent_nanos_total")
                .saturating_sub(counter_sum(&before, "pcmax_pool_extent_nanos_total"));
            let busy_pct = if extent > 0 {
                format!("{:.1}", busy as f64 / extent as f64 * 100.0)
            } else {
                "-".to_string()
            };
            let parks = if report.stats.pool_wakes > 0 || report.stats.pool_parks > 0 {
                debug_assert_eq!(report.stats.pool_parks, report.stats.pool_wakes);
                report.stats.pool_parks.to_string()
            } else {
                "-".to_string()
            };
            rows.push(Row {
                name,
                scenario: spec.scenario.label(),
                makespan: report.makespan,
                certified: report.certified_target,
                dt,
                busy_pct,
                parks,
            });
        }

        // The ratio denominator: the identical-machine scenarios have an
        // exact solver; for Q||Cmax no exact solver is registered, so the
        // best certified target among the dual approximations (a proven
        // lower bound on OPT) stands in.
        match scenario {
            ScenarioKind::Uniform => {
                let certified = rows.iter().filter_map(|r| r.certified).max();
                Ok(match certified {
                    Some(t) => (t, " (certified lower bound)"),
                    None => (
                        MakespanBounds::of(inst).lower.max(1),
                        " (trivial lower bound)",
                    ),
                })
            }
            _ => {
                let exact = submit_wait(
                    engine,
                    Submission::new(inst.clone(), "exact").without_cache(),
                )?;
                Ok(if exact.proven_optimal {
                    (exact.makespan, "")
                } else {
                    (
                        exact.certified_target.unwrap_or(exact.makespan),
                        " (lower bound)",
                    )
                })
            }
        }
    })?;

    println!(
        "n={} m={} [{}] | denominator {}{}",
        inst.jobs(),
        inst.machines(),
        scenario.label(),
        denom,
        denom_label
    );
    println!(
        "{:<22}{:<10}{:>10}{:>9}{:>12}{:>8}{:>7}",
        "algorithm", "scenario", "makespan", "ratio", "time", "busy%", "parks"
    );
    for r in rows {
        println!(
            "{:<22}{:<10}{:>10}{:>9.3}{:>12.2?}{:>8}{:>7}",
            r.name,
            r.scenario,
            r.makespan,
            ApproxRatio::new(r.makespan, denom).value(),
            r.dt,
            r.busy_pct,
            r.parks
        );
    }
    if let Some(path) = metrics {
        let text = export::to_json_string(&pcmax_metrics::snapshot());
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path} ({} bytes, metrics snapshot)", text.len());
    }
    Ok(())
}

/// Runs a seeded workload mix through every comparator of the requested
/// families via the session engine (which meters every solve), then
/// prints a per-solver scoreboard
/// (solve counts, ratio quality, latency quantiles) straight from the
/// process metrics registry, optionally exporting the registry in
/// Prometheus or JSON form.
fn metrics_run(
    families: &[String],
    count: usize,
    eps: f64,
    threads: Option<usize>,
    seed: u64,
    format: Option<&str>,
    out: Option<&str>,
) -> Result<(), String> {
    // A clean measurement window: the scoreboard describes this mix only.
    pcmax_metrics::reset();
    let params = SolverParams {
        epsilon: eps,
        threads,
    };
    let mut solves = 0usize;
    with_engine(|engine| {
        for fam in families {
            let scenario = parse_family(fam)?;
            for i in 0..count {
                let source = Source::Generated {
                    dist: Distribution::U1To10,
                    machines: 3,
                    jobs: 12,
                    seed: seed.wrapping_add(i as u64),
                    speed_max: matches!(scenario, ScenarioKind::Uniform).then_some(4),
                    shuffle: matches!(scenario, ScenarioKind::Online),
                };
                let inst = load(&source)?;
                let mut results = Vec::new();
                for spec in comparators_for(scenario) {
                    // Cache off: the scoreboard's latency quantiles are
                    // per-solver measurements, not cache-hit measurements.
                    let report = submit_wait(
                        engine,
                        Submission::new(inst.clone(), spec.name)
                            .with_params(params.clone())
                            .without_cache(),
                    )?;
                    solves += 1;
                    results.push((spec.name, report));
                }
                // Ratio denominator, mirroring `compare`: exact OPT where an
                // exact solver is registered, else the best certified lower
                // bound among the dual approximations.
                let denom = match scenario {
                    ScenarioKind::Uniform => results
                        .iter()
                        .filter_map(|(_, r)| r.certified_target)
                        .max()
                        .unwrap_or_else(|| MakespanBounds::of(&inst).lower),
                    _ => {
                        let exact = submit_wait(
                            engine,
                            Submission::new(inst.clone(), "exact").without_cache(),
                        )?;
                        exact.makespan
                    }
                }
                .max(1);
                for (name, report) in &results {
                    SOLVE_RATIO_PERMILLE
                        .with_label(name)
                        .observe(report.makespan.saturating_mul(1000) / denom);
                }
            }
        }
        Ok(())
    })?;

    let snap = pcmax_metrics::snapshot();
    println!(
        "{} solves across {} family(ies), {} instances each | eps={eps}",
        solves,
        families.len(),
        count
    );
    print_scoreboard(&snap);

    let export_text = |fmt: &str| match fmt {
        "prom" => export::to_prometheus(&snap),
        _ => export::to_json_string(&snap),
    };
    if let Some(path) = out {
        let fmt = format.unwrap_or("json");
        let text = export_text(fmt);
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path} ({} bytes, {fmt} format)", text.len());
    } else if let Some(fmt) = format {
        print!("{}", export_text(fmt));
    }
    Ok(())
}

/// Renders the solver scoreboard from a registry snapshot: one row per
/// solver that recorded at least one latency observation, with the ratio
/// and latency quantile estimates of the aggregated histograms.
fn print_scoreboard(snap: &Snapshot) {
    println!(
        "{:<12}{:<10}{:>7}{:>8}{:>8}{:>10}{:>10}{:>10}{:>10}",
        "solver", "scenario", "solves", "ratio", "r-p90", "p50ms", "p90ms", "p99ms", "maxms"
    );
    let ms = |nanos: f64| nanos / 1e6;
    for sample in &snap.samples {
        if sample.name != "pcmax_solve_latency_nanos" {
            continue;
        }
        let Some((_, solver)) = &sample.label else {
            continue;
        };
        let pcmax_metrics::SampleValue::Histogram(lat) = &sample.value else {
            continue;
        };
        if lat.count() == 0 {
            continue;
        }
        let scenario = lookup(solver).map_or("-", |s| s.scenario.label());
        let ratio = snap.histogram("pcmax_solve_ratio_permille", Some(solver));
        let fmt_ratio = |r: Option<f64>| match r {
            Some(permille) => format!("{:.3}", permille / 1000.0),
            None => "-".to_string(),
        };
        println!(
            "{:<12}{:<10}{:>7}{:>8}{:>8}{:>10.2}{:>10.2}{:>10.2}{:>10.2}",
            solver,
            scenario,
            lat.count(),
            fmt_ratio(ratio.and_then(|r| r.mean())),
            fmt_ratio(ratio.and_then(|r| r.quantile(0.9))),
            ms(lat.quantile(0.5).unwrap_or(0.0)),
            ms(lat.quantile(0.9).unwrap_or(0.0)),
            ms(lat.quantile(0.99).unwrap_or(0.0)),
            ms(lat.max as f64),
        );
    }
}

fn print_schedule(inst: &Instance, s: &Schedule) {
    let loads = s.loads(inst);
    for (machine, jobs) in s.jobs_per_machine().iter().enumerate() {
        let times: Vec<u64> = jobs.iter().map(|&j| inst.time(j)).collect();
        println!(
            "machine {machine}: jobs {jobs:?} times {times:?} load {}",
            loads[machine]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Source;
    use pcmax_engine::registry;
    use pcmax_workloads::Distribution;

    fn tiny() -> Source {
        Source::Generated {
            dist: Distribution::U1To10,
            machines: 2,
            jobs: 8,
            seed: 3,
            speed_max: None,
            shuffle: false,
        }
    }

    fn tiny_uniform() -> Source {
        Source::Generated {
            dist: Distribution::U1To10,
            machines: 2,
            jobs: 8,
            seed: 3,
            speed_max: Some(3),
            shuffle: false,
        }
    }

    /// `compare` and `trace` start process-global trace sessions; tests that
    /// run them must not overlap.
    fn trace_serial() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock, PoisonError};
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn every_registry_name_and_alias_resolves() {
        let inst = load(&tiny()).unwrap();
        for spec in registry() {
            for name in std::iter::once(&spec.name).chain(spec.aliases) {
                let (s, label) = solve_one(&inst, name, 0.3, None, None).unwrap();
                s.validate(&inst).unwrap();
                assert!(
                    label.starts_with(spec.name),
                    "label {label:?} should lead with the primary name {}",
                    spec.name
                );
            }
        }
        let err = solve_one(&inst, "quantum", 0.3, None, None).unwrap_err();
        assert!(err.contains("unknown algorithm"), "got {err}");
        assert!(err.contains("par-ptas"), "error lists known names: {err}");
    }

    #[test]
    fn exact_labels_announce_proof_or_budget() {
        let inst = Instance::new(vec![9, 8, 7, 7, 6, 5, 5, 4, 3], 3).unwrap();
        let (_, label) = solve_one(&inst, "exact", 0.3, None, None).unwrap();
        assert!(label.contains("proven optimal"), "got {label}");
        let (_, label) = solve_one(&inst, "exact", 0.3, None, Some(1)).unwrap();
        assert!(label.contains("budget hit"), "got {label}");
    }

    #[test]
    fn run_smoke_tests_every_command() {
        let _serial = trace_serial();
        run(Command::Bounds(tiny())).unwrap();
        run(Command::Compare {
            source: tiny(),
            family: None,
            metrics: None,
        })
        .unwrap();
        run(Command::Metrics {
            families: vec!["p".into()],
            count: 1,
            eps: 0.3,
            threads: Some(2),
            seed: 5,
            format: None,
            out: None,
        })
        .unwrap();
        run(Command::Simulate {
            source: tiny(),
            procs: vec![1, 2],
            eps: 0.3,
        })
        .unwrap();
        run(Command::Solve {
            source: tiny(),
            algo: "pptas".into(),
            eps: 0.3,
            threads: Some(2),
            budget: None,
            schedule: true,
        })
        .unwrap();
        run(Command::Trace {
            source: tiny(),
            algo: "lpt".into(),
            eps: 0.3,
            threads: None,
            out: None,
            summary: true,
        })
        .unwrap();
    }

    #[test]
    fn compare_covers_every_scenario_family() {
        let _serial = trace_serial();
        // Uniform instances pick the Q comparators by inference and via the
        // explicit filter; the online family runs on a shuffled stream.
        run(Command::Compare {
            source: tiny_uniform(),
            family: None,
            metrics: None,
        })
        .unwrap();
        run(Command::Compare {
            source: tiny_uniform(),
            family: Some("q".into()),
            metrics: None,
        })
        .unwrap();
        run(Command::Compare {
            source: Source::Generated {
                dist: Distribution::U1To10,
                machines: 2,
                jobs: 8,
                seed: 3,
                speed_max: None,
                shuffle: true,
            },
            family: Some("online".into()),
            metrics: None,
        })
        .unwrap();
        let err = run(Command::Compare {
            source: tiny(),
            family: Some("galactic".into()),
            metrics: None,
        })
        .unwrap_err();
        assert!(err.contains("unknown --family"), "got {err}");
    }

    #[test]
    fn solve_handles_the_new_scenario_algorithms() {
        let inst = load(&tiny_uniform()).unwrap();
        let (s, label) = solve_one(&inst, "ptas-q", 0.3, None, None).unwrap();
        s.validate(&inst).unwrap();
        assert!(label.contains("certified target"), "got {label}");
        let (s, label) = solve_one(&inst, "lpt-q", 0.3, None, None).unwrap();
        s.validate(&inst).unwrap();
        assert!(label.starts_with("lpt-q"), "got {label}");
        let (s, _) = solve_one(&inst, "ls-online", 0.3, None, None).unwrap();
        s.validate(&inst).unwrap();
    }

    #[test]
    fn metrics_run_exports_validating_snapshots() {
        let _serial = trace_serial();
        let json_path = std::env::temp_dir().join("pcmax_cli_metrics_test.json");
        let prom_path = std::env::temp_dir().join("pcmax_cli_metrics_test.prom");
        run(Command::Metrics {
            families: vec!["p".into(), "q".into(), "online".into()],
            count: 1,
            eps: 0.5,
            threads: Some(2),
            seed: 7,
            format: None,
            out: Some(json_path.to_str().unwrap().into()),
        })
        .unwrap();
        let text = std::fs::read_to_string(&json_path).unwrap();
        let snap = export::from_json_str(&text).unwrap();
        export::validate_snapshot(&snap).unwrap();
        // The scoreboard inputs all made it into the export: per-solver
        // latency and ratio histograms for every family's comparators.
        for solver in ["ls", "lpt", "par-ptas", "ptas-q", "ls-online"] {
            let lat = snap
                .histogram("pcmax_solve_latency_nanos", Some(solver))
                .unwrap_or_else(|| panic!("no latency histogram for {solver}"));
            assert!(lat.count() > 0, "{solver} latency is empty");
            let ratio = snap
                .histogram("pcmax_solve_ratio_permille", Some(solver))
                .unwrap_or_else(|| panic!("no ratio histogram for {solver}"));
            // Every comparator is at least 1.0x the reference.
            assert!(
                ratio.quantile(0.5).unwrap() >= 500.0,
                "{solver} ratio p50 below bucket of 1000 permille"
            );
        }
        assert_eq!(snap.counter("pcmax_solve_outcomes_total", Some("ok")), {
            let solves = snap
                .samples
                .iter()
                .filter(|s| s.name == "pcmax_solve_latency_nanos")
                .filter_map(|s| match &s.value {
                    pcmax_metrics::SampleValue::Histogram(h) => Some(h.count()),
                    _ => None,
                })
                .sum::<u64>();
            Some(solves)
        });

        run(Command::Metrics {
            families: vec!["p".into()],
            count: 1,
            eps: 0.5,
            threads: Some(2),
            seed: 7,
            format: Some("prom".into()),
            out: Some(prom_path.to_str().unwrap().into()),
        })
        .unwrap();
        let text = std::fs::read_to_string(&prom_path).unwrap();
        let stats = export::validate_prometheus(&text).unwrap();
        assert!(stats.histograms > 0, "prometheus export has no histograms");
        let _ = std::fs::remove_file(&json_path);
        let _ = std::fs::remove_file(&prom_path);
    }

    #[test]
    fn compare_metrics_flag_persists_a_snapshot() {
        let _serial = trace_serial();
        let path = std::env::temp_dir().join("pcmax_cli_compare_metrics.json");
        run(Command::Compare {
            source: tiny(),
            family: None,
            metrics: Some(path.to_str().unwrap().into()),
        })
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let snap = export::from_json_str(&text).unwrap();
        export::validate_snapshot(&snap).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_exports_chrome_json_that_revalidates() {
        let _serial = trace_serial();
        let inst = load(&Source::Generated {
            dist: Distribution::U1To100,
            machines: 4,
            jobs: 24,
            seed: 11,
            speed_max: None,
            shuffle: false,
        })
        .unwrap();
        let path = std::env::temp_dir().join("pcmax_cli_trace_test.json");
        trace(
            &inst,
            "par-ptas",
            0.3,
            Some(2),
            Some(path.to_str().unwrap()),
            false,
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let stats = pcmax_trace::chrome::validate(&text).unwrap();
        assert!(stats.events > 0, "exported trace must not be empty");
        let _ = std::fs::remove_file(&path);

        let err = trace(&inst, "quantum", 0.3, None, None, true).unwrap_err();
        assert!(err.contains("unknown algorithm"), "got {err}");
    }
}

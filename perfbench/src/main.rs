//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-large|serve-mixed|serve-repeat> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the workspace from outside through its public APIs
//! (`pcmax_engine::Engine::submit`/`SolveHandle::wait`, and a
//! `pcmax_serve::Server` on an ephemeral loopback port spoken to with
//! `pcmax_core::wire` frames), checks every answer, and prints the metrics
//! by name with their units. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer ones, whose spans
//! are also written as Chrome trace-event JSON under `perfbench/out/`.
//! See `perfbench/README.md` for the workloads and the metric mapping.

mod check;
mod host;
mod layers;
mod spans;
mod stats;
mod workload;

use pcmax_core::json::{object, Value};
use stats::{median, percentile, tail_percentile};
use std::io;
use std::process::ExitCode;
use std::time::Instant;
use workload::Phase;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Request spans written to a traced run's Chrome trace.
const MAX_REQUEST_SPANS: usize = 30_000;

const USAGE: &str = "usage: perfbench --workload <solve-large|serve-mixed|serve-repeat> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            workload::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the sent/succeeded/failed counts of a phase, and the open-loop
/// bookkeeping when it has an offered rate.
fn report_phase(phase: &Phase) {
    let (sent, failed) = (phase.sent, phase.failed);
    println!(
        "phase {:<9} sent {sent:>7}  succeeded {:>7}  failed {failed}  ({:.3} s)",
        phase.label,
        sent - failed,
        phase.elapsed.as_secs_f64()
    );
    if let Some(offered) = phase.offered_rps {
        let completed = (sent - failed) as f64 / phase.elapsed.as_secs_f64();
        let mut late = phase.late_ms.clone();
        late.sort_by(f64::total_cmp);
        println!(
            "  open loop: offered {offered:.1} req/s, completed {completed:.1} req/s, \
             generator late p50 {:.3} ms p99 {:.3} ms max {:.3} ms, backlog {}",
            percentile(&late, 50.0),
            percentile(&late, 99.0),
            late.last().copied().unwrap_or(0.0),
            if completed < 0.95 * offered {
                "GROWING (completion rate below the offered rate)"
            } else {
                "steady"
            }
        );
    }
    for failure in &phase.failures {
        println!("  failure: {failure}");
    }
}

fn metric(value: f64, unit: &str) -> Value {
    object(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

/// Answers a time window needs before latency and throughput are taken per
/// window instead of over the pooled phase: enough for its p99 to rest on
/// at least 20 samples.
const MIN_WINDOW_ANSWERS: u64 = 2000;

/// Latency percentiles and throughput of a phase. When every window has at
/// least [`MIN_WINDOW_ANSWERS`] answers, each figure is the better quartile
/// of its per-window values (the 3rd-best of 10 windows), so a spell of CPU
/// steal by the host's neighbours that spoils up to 7 windows does not move
/// it; otherwise the windows are pooled. The open loop's windows hold the
/// requests due in them, a count fixed by the seed, so its throughput is
/// always the completion rate of the whole phase.
fn latency_and_throughput(phase: &Phase) -> (f64, f64, f64) {
    let answered: u64 = phase.windows.iter().map(|w| w.answered).sum();
    let completion_rate = answered as f64 / phase.elapsed.as_secs_f64();
    let fewest = phase.windows.iter().map(|w| w.answered).min().unwrap_or(0);
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    if fewest >= MIN_WINDOW_ANSWERS {
        let (tail_p, beyond) = tail_percentile(fewest as usize);
        let samples: Vec<Vec<f64>> = phase.windows.iter().map(|w| sorted(&w.sample_ms)).collect();
        let per_window = |p: f64| {
            let values = sorted(&samples.iter().map(|s| percentile(s, p)).collect::<Vec<_>>());
            percentile(&values, 25.0)
        };
        let rates = sorted(
            &phase
                .windows
                .iter()
                .map(|w| w.answered as f64 / phase.window_len.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        println!(
            "latency tail is p{tail_p}, with at least {beyond} samples beyond it in each of {} windows \
             of {:.1} s ({answered} answers); figures are the better quartile over the windows",
            phase.windows.len(),
            phase.window_len.as_secs_f64()
        );
        let throughput = match phase.offered_rps {
            Some(_) => completion_rate,
            None => percentile(&rates, 75.0),
        };
        (per_window(50.0), per_window(tail_p), throughput)
    } else {
        let lat = sorted(&phase.pooled_ms());
        let (tail_p, beyond) = tail_percentile(lat.len());
        println!(
            "latency tail is p{tail_p} with {beyond} of {} samples beyond it",
            lat.len()
        );
        (
            percentile(&lat, 50.0),
            percentile(&lat, tail_p),
            completion_rate,
        )
    }
}

/// The end-to-end metrics of the measured traffic phase.
fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let n = phase.sent;
    // Failed requests count in `error_frac`, not in the latency sample.
    let answered = n - phase.failed;
    let (p50, tail, throughput) = latency_and_throughput(phase);
    // Makespan ratio over the distinct instances answered, so it does not
    // depend on how many laps a run completed.
    let ratios: Vec<f64> = phase.first_ratio.values().copied().collect();
    let e2e = vec![
        ("latency_p50_ms", p50, "ms"),
        ("latency_tail_ms", tail, "ms"),
        ("throughput_rps", throughput, "1/s"),
        ("makespan_ratio", stats::mean(&ratios), "ratio"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("setup_s", setup_s, "s"),
    ];
    println!(
        "error_frac {} ({} failed of {n} attempted; errors, refusals, cancels, dropped replies and failed output checks)",
        (n - answered) as f64 / n.max(1) as f64,
        n - answered
    );
    println!("makespan_ratio over {} distinct instances", ratios.len());
    e2e
}

fn run(args: &Args) -> io::Result<ExitCode> {
    let host = host::facts(&args.workload, args.seed, args.seconds, args.trace);
    println!("host {}", host.to_string_compact());

    // Set up several times; the last set-up carries the traffic.
    let timed_setup = || -> io::Result<_> {
        let t0 = Instant::now();
        let setup = workload::setup(&args.workload, args.seed, args.seconds)?;
        Ok((setup, t0.elapsed().as_secs_f64()))
    };
    let ((mut w, mut warm), first) = timed_setup()?;
    let mut setups = vec![first];
    for _ in 1..SETUPS {
        w.finish()?;
        let (setup, secs) = timed_setup()?;
        (w, warm) = setup;
        setups.push(secs);
    }
    let setup_s = median(&setups);
    println!(
        "setup_s {setup_s} (median of {SETUPS}: {})",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    report_phase(&warm);

    let (phases, metrics) = if args.trace {
        let plain = w.run("untraced", args.seconds / 2.0, false)?;
        let before = layers::Registry::read();
        let traced = w.run("traced", args.seconds / 2.0, true)?;
        let registry = layers::Registry::read().since(before);
        report_phase(&plain);
        report_phase(&traced);
        let report = layers::measure(&args.workload, w.items(), &plain, &traced, registry)?;
        print_layer_table(&args.workload, &report);
        // The request spans of the first requests are plenty to inspect in
        // Perfetto; the replay spans are all kept.
        let mut spans: Vec<spans::Span> = traced
            .spans
            .iter()
            .take(MAX_REQUEST_SPANS)
            .cloned()
            .collect();
        spans.extend(report.spans.iter().cloned());
        let path = write_trace(&args.workload, args.seed, &spans, traced.begin, host)?;
        println!("trace {path} ({} spans)", spans.len());
        (vec![plain, traced], report.metrics)
    } else {
        let phase = w.run("traffic", args.seconds, false)?;
        report_phase(&phase);
        let metrics = end_to_end(&phase, setup_s);
        (vec![phase], metrics)
    };
    w.finish()?;

    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    let attempted: usize = phases.iter().map(|p| p.sent).sum();
    let failed: usize = phases.iter().map(|p| p.failed).sum();
    let violations: u64 = phases.iter().map(|p| p.violations).sum();
    let result = object(vec![
        ("correct", Value::Bool(violations == 0)),
        ("attempted", Value::UInt(attempted as u64)),
        ("failed", Value::UInt(failed as u64)),
        (
            "metrics",
            object(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| (name, metric(value, unit)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_string_compact());
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {violations} answers failed the output check");
        ExitCode::FAILURE
    })
}

fn print_layer_table(workload: &str, report: &layers::LayerReport) {
    println!(
        "layer table for {workload}: mean self-time per request over the p50 band \
         ({} requests, mean latency {:.4} ms)",
        report.band_requests, report.band_latency_ms
    );
    println!(
        "  {:<20} {:>12} {:>10} {:>8}",
        "layer", "self ms", "calls", "share"
    );
    for row in &report.table {
        println!(
            "  {:<20} {:>12.5} {:>10.2} {:>7.1}%",
            row.layer,
            row.self_ms,
            row.calls,
            100.0 * row.self_ms / report.band_latency_ms
        );
    }
    println!(
        "  {:<20} {:>12.5} {:>10} {:>7.1}%",
        "(unaccounted)",
        report.unaccounted_frac * report.band_latency_ms,
        "",
        100.0 * report.unaccounted_frac
    );
    if matches!(workload, "solve-large" | "serve-repeat") {
        println!(
            "  layers account for the p50 band within the stated tolerance of {:.0}%: {}",
            100.0 * layers::UNACCOUNTED_TOLERANCE,
            if report.unaccounted_frac.abs() <= layers::UNACCOUNTED_TOLERANCE {
                "yes"
            } else {
                "NO"
            }
        );
    }
    for figure in &report.figures {
        println!("  {figure}");
    }
}

/// Writes the traced run's spans as Chrome trace-event JSON and returns
/// the path.
fn write_trace(
    workload: &str,
    seed: u64,
    spans: &[spans::Span],
    origin: Instant,
    host: Value,
) -> io::Result<String> {
    let dir = "perfbench/out";
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{workload}-seed{seed}.json");
    let doc = spans::chrome_trace(spans, origin, host);
    std::fs::write(&path, doc.to_string_compact())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mixed", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "solve-large", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "solve-large", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "solve-large",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}

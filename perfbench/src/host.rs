//! Host and build facts recorded with every result.

use pcmax_core::json::{object, Value};
use std::process::Command;

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The facts as one JSON object: core count, kernel ISA, CPU model, rustc
/// version, commit, and the run's workload, seed and length.
pub fn facts(workload: &str, seed: u64, seconds: f64, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    object(vec![
        ("nproc", Value::UInt(nproc as u64)),
        (
            "kernel_isa",
            Value::Str(pcmax_parallel::simd::kernel_isa().to_string()),
        ),
        ("cpu_model", Value::Str(cpu_model())),
        ("rustc", Value::Str(first_line("rustc", &["--version"]))),
        (
            "commit",
            Value::Str(first_line("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::UInt(seed)),
        ("run_seconds", Value::Float(seconds)),
        ("trace", Value::Bool(trace)),
    ])
}

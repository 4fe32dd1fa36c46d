//! Micro-benchmark for the batched wavefront **cell kernel**: DP cells per
//! second of the bucketed sweep, isolated from table construction and
//! witness extraction, across three kernel columns —
//!
//! * `scalar` — the pre-batching per-cell kernel ([`CellKernel::Scalar`]),
//! * `lane`   — the strip kernel pinned to the portable fixed-width lane
//!   loops (`simd::force_portable(true)`),
//! * `native` — the strip kernel under the widest ISA the CPU offers
//!   (compile-time intrinsics or the runtime AVX2 trampoline; the JSON
//!   records which via `isa`),
//!
//! each at 1/2/4 worker threads, over a `u100-m*-n*-eps*` grid whose
//! largest case exceeds 10⁶ DP cells, so throughput is measured on tables
//! large enough to time honestly. The 1/2/4-thread columns are also the
//! pool's tracked scaling numbers; a case below the wavefront's serial
//! cutoff sweeps inline on the caller in every column.
//!
//! ```text
//! cargo bench -p pcmax-bench --bench kernel -- [--smoke] [--list] \
//!     [--json FILE] [--check FILE] [--min-secs S]
//! ```
//!
//! * `--list`       — print each case's table size and exit (grid design aid).
//! * `--json FILE`  — write measurements (tracked `BENCH_kernel.json`).
//! * `--check FILE` — regression gate: fail if the single-threaded
//!   native/scalar speedup regressed by more than 25% against `FILE` for
//!   any case, or if any measured case's 2- or 4-thread native cells/s is
//!   below 75% of its own 1-thread figure. Both rules compare *ratios*, so
//!   they are machine-normalized.
//! * `--smoke`      — only the small fixed case (CI `bench-smoke`).
//!
//! Every timed sweep is first checked bit-identical against the serial
//! generic engine on the same rounded problem.

use pcmax_bench::timing::time_stable;
use pcmax_core::json::{self, Value};
use pcmax_parallel::wavefront::bucketed_sweep_space_with;
use pcmax_parallel::{simd, CellKernel};
use pcmax_ptas::dp::{DpProblem, IterativeDp};
use pcmax_ptas::space::{PcmaxSpace, SpaceEngine};
use pcmax_ptas::table::DpScratch;
use pcmax_ptas::{rounded_problem, EpsilonParams};
use pcmax_workloads::{generate, Distribution, Family};
use std::process::ExitCode;

/// Worker-thread columns; the last is the PR's acceptance point.
const THREAD_COUNTS: &[usize] = &[1, 2, 4];

/// Regression tolerance on the native/scalar speedup ratio, and on the
/// multi-thread over 1-thread native throughput.
const TOLERANCE: f64 = 0.25;

struct Case {
    name: &'static str,
    machines: usize,
    jobs: usize,
    epsilon: f64,
    smoke: bool,
}

/// The paper's U(1,100) workload, scaled from the CI smoke case up to a
/// table of more than 10⁶ cells. σ only grows when `T` stays near the largest
/// job size (small `n/m`) — otherwise every job falls below the `ε·T` long
/// threshold and the table collapses — so the grid scales `m` with `n` and
/// trims ε rather than inflating `n` alone.
const CASES: &[Case] = &[
    Case {
        name: "smoke-u100-m10-n50-eps0.3",
        machines: 10,
        jobs: 50,
        epsilon: 0.3,
        smoke: true,
    },
    Case {
        name: "u100-m20-n100-eps0.3",
        machines: 20,
        jobs: 100,
        epsilon: 0.3,
        smoke: false,
    },
    Case {
        name: "u100-m40-n120-eps0.35",
        machines: 40,
        jobs: 120,
        epsilon: 0.35,
        smoke: false,
    },
    Case {
        name: "u100-m30-n90-eps0.3",
        machines: 30,
        jobs: 90,
        epsilon: 0.3,
        smoke: false,
    },
];

struct Column {
    threads: usize,
    scalar_cps: f64,
    lane_cps: f64,
    native_cps: f64,
}

struct Measurement {
    name: &'static str,
    cells: u64,
    columns: Vec<Column>,
}

impl Measurement {
    /// Native-over-scalar speedup at **one** thread — the machine-normalized
    /// figure the `--check` gate compares. Single-threaded deliberately: at
    /// higher thread counts the barrier and park/wake costs are shared by
    /// both kernels and drown the ratio in scheduler noise, while the pool's
    /// thread scaling has its own rule (see [`check_scaling`]).
    fn speedup(&self) -> f64 {
        let first = self.columns.first().expect("at least one thread count");
        first.native_cps / first.scalar_cps
    }

    fn to_json(&self) -> Value {
        json::object(vec![
            ("case", Value::Str(self.name.to_string())),
            ("cells", Value::UInt(self.cells)),
            (
                "columns",
                Value::Array(
                    self.columns
                        .iter()
                        .map(|c| {
                            json::object(vec![
                                ("threads", Value::UInt(c.threads as u64)),
                                ("scalar_cells_per_sec", Value::Float(c.scalar_cps)),
                                ("lane_cells_per_sec", Value::Float(c.lane_cps)),
                                ("native_cells_per_sec", Value::Float(c.native_cps)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("speedup", Value::Float(self.speedup())),
        ])
    }
}

fn rounded(case: &Case) -> DpProblem {
    let inst = generate(
        Family::new(case.machines, case.jobs, Distribution::U1To100),
        1,
    );
    let eps = EpsilonParams::new(case.epsilon).expect("valid epsilon");
    let target = pcmax_core::lower_bound(&inst);
    rounded_problem(&inst, &eps, target, DpProblem::DEFAULT_MAX_ENTRIES).0
}

fn measure(case: &Case, min_secs: f64) -> Measurement {
    let problem = rounded(case);
    let mut scratch = DpScratch::new();

    // Reference values from the serial oracle, once.
    let mut reference = problem.build_table().expect("guarded size");
    let ref_configs = problem.configs_with_offsets(&reference);
    IterativeDp.sweep(&mut reference, &PcmaxSpace::new(&ref_configs), &mut scratch);
    let want = reference.values_row_major();
    let cells = (reference.len - 1) as u64;

    let mut table = problem
        .build_level_major_table_in(&mut scratch)
        .expect("guarded size");
    let configs = problem.configs_with_offsets(&table);
    let space = PcmaxSpace::new(&configs);

    // The sweep rewrites every cell, so re-sweeping the same table in place
    // is sound — and it is exactly the kernel-only measurement we want.
    let mut sweep = |threads: usize, kernel: CellKernel| -> f64 {
        table.values[0] = 0;
        bucketed_sweep_space_with(&mut table, &space, threads, &mut scratch, kernel);
        assert_eq!(
            table.values_row_major(),
            want,
            "{}: {kernel:?} kernel diverged from the serial engine",
            case.name
        );
        // Best-of-3: the min per-run time filters scheduler noise, which
        // matters for the ratio gate far more than absolute accuracy does.
        let secs = (0..3)
            .map(|_| {
                time_stable(min_secs, || {
                    table.values[0] = 0;
                    bucketed_sweep_space_with(&mut table, &space, threads, &mut scratch, kernel);
                })
            })
            .fold(f64::INFINITY, f64::min);
        cells as f64 / secs
    };

    let mut columns = Vec::new();
    for &threads in THREAD_COUNTS {
        let scalar_cps = sweep(threads, CellKernel::Scalar);
        simd::force_portable(true);
        let lane_cps = sweep(threads, CellKernel::Strip);
        simd::force_portable(false);
        let native_cps = sweep(threads, CellKernel::Strip);
        columns.push(Column {
            threads,
            scalar_cps,
            lane_cps,
            native_cps,
        });
    }

    Measurement {
        name: case.name,
        cells,
        columns,
    }
}

/// The thread-scaling rule: every measured case's 2- and 4-thread native
/// cells/s must reach `1 − TOLERANCE` of its own 1-thread figure, so more
/// threads are never much slower than one. Returns one message per breach.
fn check_scaling(current: &[Measurement]) -> Vec<String> {
    let floor = 1.0 - TOLERANCE;
    let mut breaches = Vec::new();
    for m in current {
        let (one, more) = m.columns.split_first().expect("at least one thread count");
        for c in more {
            let ratio = c.native_cps / one.native_cps;
            println!(
                "check {:<24} native {} threads / {} thread x{ratio:.2}  floor x{floor:.2}",
                m.name, c.threads, one.threads
            );
            if ratio < floor {
                breaches.push(format!(
                    "{}: native throughput at {} threads is x{ratio:.2} of {} thread \
                     (floor x{floor:.2})",
                    m.name, c.threads, one.threads
                ));
            }
        }
    }
    breaches
}

fn check_against(baseline: &Value, current: &[Measurement]) -> Result<(), String> {
    let mut breaches = check_scaling(current);
    let cases = baseline
        .get("cases")
        .and_then(Value::as_array)
        .ok_or("baseline JSON has no `cases` array")?;
    let mut compared = 0usize;
    for m in current {
        let Some(base) = cases
            .iter()
            .find(|c| c.get("case").and_then(Value::as_str) == Some(m.name))
        else {
            continue;
        };
        let base_speedup = base
            .get("speedup")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("baseline case {} has no `speedup`", m.name))?;
        compared += 1;
        let floor = base_speedup * (1.0 - TOLERANCE);
        println!(
            "check {:<24} baseline x{base_speedup:.2}  current x{:.2}  floor x{floor:.2}",
            m.name,
            m.speedup()
        );
        if m.speedup() < floor {
            breaches.push(format!(
                "{}: native/scalar speedup regressed to x{:.2} (baseline \
                 x{base_speedup:.2}, floor x{floor:.2})",
                m.name,
                m.speedup()
            ));
        }
    }
    if compared == 0 {
        return Err("no case overlapped with the baseline — gate is vacuous".to_string());
    }
    if !breaches.is_empty() {
        return Err(breaches.join("; "));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut list = false;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut min_secs = 0.3f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--list" => list = true,
            "--json" => json_path = args.next(),
            "--check" => check_path = args.next(),
            "--min-secs" => {
                min_secs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--min-secs needs a number");
            }
            // `cargo bench` forwards its own flags; ignore the rest.
            _ => {}
        }
    }

    if list {
        for case in CASES {
            let problem = rounded(case);
            match problem.build_table() {
                Ok(table) => println!(
                    "{:<24} {:>10} cells   dims {:?}",
                    case.name,
                    table.len - 1,
                    table.dims
                ),
                Err(e) => println!("{:<24} oversize: {e}", case.name),
            }
        }
        return ExitCode::SUCCESS;
    }

    println!("== kernel (isa: {}) ==", simd::kernel_isa());
    let mut results = Vec::new();
    for case in CASES.iter().filter(|c| !smoke || c.smoke) {
        let m = measure(case, min_secs);
        println!("{:<24} {:>10} cells", m.name, m.cells);
        for c in &m.columns {
            println!(
                "  {} threads: scalar {:>12.0}   lane {:>12.0}   native {:>12.0} cells/s",
                c.threads, c.scalar_cps, c.lane_cps, c.native_cps
            );
        }
        println!("  native/scalar speedup at 1 thread: x{:.2}", m.speedup());
        results.push(m);
    }

    if let Some(path) = json_path {
        let doc = json::object(vec![
            ("bench", Value::Str("kernel".to_string())),
            ("isa", Value::Str(simd::kernel_isa().to_string())),
            ("tolerance", Value::Float(TOLERANCE)),
            (
                "cases",
                Value::Array(results.iter().map(Measurement::to_json).collect()),
            ),
        ]);
        std::fs::write(&path, doc.to_string_pretty()).expect("write json");
        println!("wrote {path}");
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = json::parse(&text).expect("baseline parses");
        match check_against(&baseline, &results) {
            Ok(()) => println!("bench-smoke gate: OK (within {:.0}%)", TOLERANCE * 100.0),
            Err(msg) => {
                eprintln!("bench-smoke gate FAILED: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

//! Micro-benchmark for the wavefront's **block kernel**: DP cells per
//! second of the production sweep, isolated from table construction and
//! witness extraction, against the serial oracle on the same table:
//!
//! * `oracle` — the `IterativeDp` sweep (one ascending row-major pass), the
//!   denominator,
//! * `lane`   — the block sweep pinned to the baseline ISA
//!   (`simd::force_portable(true)`),
//! * `native` — the block sweep under the widest ISA the CPU offers (a
//!   `-C target-feature` build or the runtime AVX2 trampoline; the JSON
//!   records which via `isa`),
//!
//! the block sweeps at 1/2/4 worker threads, over a `u100-m*-n*-eps*` grid
//! whose largest case exceeds 10⁶ DP cells, so throughput is measured on
//! tables large enough to time honestly. The 1/2/4-thread columns are also
//! the pool's tracked scaling numbers; a case below the wavefront's serial
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
//!   native/oracle speedup regressed by more than 25% against `FILE` for
//!   any case, or if a 2- or 4-thread native sweep that ran on the pool
//!   reached less than 75% of its case's 1-thread cells/s. Both rules
//!   compare *ratios*, so they are machine-normalized. A sweep below the
//!   serial cutoff runs the same inline code at every thread count, so the
//!   scaling rule skips it; the gate fails if it skipped every sweep.
//! * `--smoke`      — only the smoke cases (CI `bench-smoke`): the small
//!   fixed case, which sweeps inline, and the pinned 2.57 M-cell case,
//!   which sweeps on the pool.
//!
//! Every timed sweep is checked bit-identical against the oracle's table.
//! The timings run in [`ROUNDS`] alternating rounds, and both rules gate on
//! the median of the rounds' own ratios. The cells/s printed and written
//! are the *median round*'s: the round whose 1-thread native/oracle ratio
//! is that median, so a written `speedup` is native/oracle of its own
//! columns.

use pcmax_bench::timing::time_stable;
use pcmax_core::json::{self, Value};
use pcmax_parallel::simd;
use pcmax_parallel::wavefront::bucketed_sweep_space;
use pcmax_ptas::dp::{DpProblem, IterativeDp};
use pcmax_ptas::space::{PcmaxSpace, SpaceEngine};
use pcmax_ptas::table::DpScratch;
use pcmax_ptas::{rounded_problem, EpsilonParams};
use pcmax_workloads::{generate, Distribution, Family};
use std::process::ExitCode;

/// Worker-thread columns; the last is the PR's acceptance point.
const THREAD_COUNTS: &[usize] = &[1, 2, 4];

/// Regression tolerance on the native/oracle speedup ratio, and on the
/// multi-thread over 1-thread native throughput.
const TOLERANCE: f64 = 0.25;

/// Timing rounds per case. Each round times the oracle once and both block
/// columns at every thread count once, back to back, so a slow spell of
/// the host lands on both sides of one round's ratios instead of on one
/// side of the comparison.
const ROUNDS: usize = 5;

/// Column indices into a round's cells/s pair.
const LANE: usize = 0;
const NATIVE: usize = 1;

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
        smoke: true,
    },
];

struct Column {
    threads: usize,
    /// Lane and native cells/s, one pair per round.
    rounds: Vec<[f64; 2]>,
    /// The native sweep parked workers on the pool (it was above the
    /// serial cutoff and ran on more than one thread).
    pooled: bool,
}

fn median(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

struct Measurement {
    name: &'static str,
    cells: u64,
    /// The oracle's cells/s, one per round.
    oracle: Vec<f64>,
    columns: Vec<Column>,
    /// The round whose 1-thread native/oracle ratio is the median over
    /// rounds; every column reports this round's cells/s.
    median_round: usize,
}

impl Measurement {
    /// `column`'s cells/s for `kernel` in the median round.
    fn cells_per_sec(&self, column: &Column, kernel: usize) -> f64 {
        column.rounds[self.median_round][kernel]
    }

    /// The oracle's cells/s in the median round.
    fn oracle_cells_per_sec(&self) -> f64 {
        self.oracle[self.median_round]
    }

    /// Native-over-oracle speedup at **one** thread in the median round —
    /// the machine-normalized figure the `--check` gate compares.
    /// Single-threaded deliberately, like the oracle: the pool's thread
    /// scaling has its own rule (see [`check_scaling`]).
    fn speedup(&self) -> f64 {
        let first = self.columns.first().expect("at least one thread count");
        self.cells_per_sec(first, NATIVE) / self.oracle_cells_per_sec()
    }

    fn to_json(&self) -> Value {
        json::object(vec![
            ("case", Value::Str(self.name.to_string())),
            ("cells", Value::UInt(self.cells)),
            (
                "oracle_cells_per_sec",
                Value::Float(self.oracle_cells_per_sec()),
            ),
            (
                "columns",
                Value::Array(
                    self.columns
                        .iter()
                        .map(|c| {
                            json::object(vec![
                                ("threads", Value::UInt(c.threads as u64)),
                                (
                                    "lane_cells_per_sec",
                                    Value::Float(self.cells_per_sec(c, LANE)),
                                ),
                                (
                                    "native_cells_per_sec",
                                    Value::Float(self.cells_per_sec(c, NATIVE)),
                                ),
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
    let mut table = problem.build_table_in(&mut scratch).expect("guarded size");
    let configs = problem.configs_with_offsets(&table);
    let space = PcmaxSpace::new(&configs);
    let cells = (table.len - 1) as u64;

    // Reference values from the oracle, once.
    IterativeDp.sweep(&mut table, &space, &mut scratch);
    let want = table.values.clone();

    // Every sweep rewrites every cell but the seeded rank 0, so re-sweeping
    // the same table in place is sound — and it is exactly the kernel-only
    // measurement we want. `threads: None` times the oracle. Returns
    // cells/s and whether the sweeps parked on the pool.
    let mut sweep = |threads: Option<usize>| -> (f64, bool) {
        let parks = scratch.pool_parks;
        let secs = time_stable(min_secs, || match threads {
            None => IterativeDp.sweep(&mut table, &space, &mut scratch),
            Some(threads) => bucketed_sweep_space(&mut table, &space, threads, &mut scratch),
        });
        assert_eq!(
            table.values, want,
            "{}: the sweep on {threads:?} threads diverged from the oracle",
            case.name
        );
        (cells as f64 / secs, scratch.pool_parks > parks)
    };

    let mut oracle = Vec::with_capacity(ROUNDS);
    let mut columns: Vec<Column> = THREAD_COUNTS
        .iter()
        .map(|&threads| Column {
            threads,
            rounds: Vec::with_capacity(ROUNDS),
            pooled: false,
        })
        .collect();
    for _ in 0..ROUNDS {
        oracle.push(sweep(None).0);
        for column in &mut columns {
            simd::force_portable(true);
            let (lane, _) = sweep(Some(column.threads));
            simd::force_portable(false);
            let (native, pooled) = sweep(Some(column.threads));
            column.rounds.push([lane, native]);
            column.pooled |= pooled;
        }
    }

    let one = &columns[0].rounds;
    let speedup = |round: usize| one[round][NATIVE] / oracle[round];
    let mut order: Vec<usize> = (0..ROUNDS).collect();
    order.sort_by(|&a, &b| speedup(a).total_cmp(&speedup(b)));
    Measurement {
        name: case.name,
        cells,
        median_round: order[ROUNDS / 2],
        oracle,
        columns,
    }
}

/// The thread-scaling rule: every 2- and 4-thread native sweep that ran on
/// the pool must reach `1 − TOLERANCE` of its case's 1-thread cells/s (the
/// median over rounds of each round's own ratio), so more threads are never
/// much slower than one. A sweep that stayed inline ran the 1-thread code,
/// so comparing it would only compare two timings of one path. Returns one
/// message per breach, and one if no sweep was checked at all.
fn check_scaling(current: &[Measurement]) -> Vec<String> {
    let floor = 1.0 - TOLERANCE;
    let mut breaches = Vec::new();
    let mut checked = 0usize;
    for m in current {
        let (one, more) = m.columns.split_first().expect("at least one thread count");
        for c in more {
            if !c.pooled {
                println!(
                    "check {:<24} native {} threads swept inline: scaling rule not applied",
                    m.name, c.threads
                );
                continue;
            }
            checked += 1;
            let ratio = median(
                c.rounds
                    .iter()
                    .zip(&one.rounds)
                    .map(|(c, one)| c[NATIVE] / one[NATIVE])
                    .collect(),
            );
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
    if checked == 0 {
        breaches.push("no multi-thread sweep ran on the pool — scaling rule is vacuous".into());
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
                "{}: native/oracle speedup regressed to x{:.2} (baseline \
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
        println!(
            "{:<24} {:>10} cells   oracle {:>12.0} cells/s",
            m.name,
            m.cells,
            m.oracle_cells_per_sec()
        );
        for c in &m.columns {
            println!(
                "  {} threads: lane {:>12.0}   native {:>12.0} cells/s",
                c.threads,
                m.cells_per_sec(c, LANE),
                m.cells_per_sec(c, NATIVE)
            );
        }
        println!("  native/oracle speedup at 1 thread: x{:.2}", m.speedup());
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

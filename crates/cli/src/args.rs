//! Hand-rolled argument parsing (no external CLI dependency).

use pcmax_workloads::Distribution;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: pcmax <command> [options]

commands:
  generate   generate a seeded instance as JSON on stdout
  bounds     print the LB/UB makespan bounds of an instance
  solve      solve an instance with one algorithm
  compare    run every algorithm on an instance and tabulate
  simulate   simulated speedup curve of the parallel PTAS
  trace      solve once with span tracing and export the timeline
  metrics    run a workload mix and print the solver scoreboard from the
             process metrics registry, optionally exporting the registry
  serve      run the pcmax-wire/1 scheduling daemon on the session engine
  client     submit solves to (or shut down) a running daemon

common options:
  -i FILE           read the instance from a JSON file ('-' = stdin)
  --dist D          distribution: U(1,10) U(1,100) U(1,2m-1) U(1,10n)
                    U(m,2m-1) U(95,105) or U(lo,hi)
  -m M, -n N        machines / jobs (with --dist)
  --seed S          RNG seed (default 1)
  --speed-max S     draw machine speeds from U(1,S): a Q||Cmax instance
  --shuffle         shuffle the arrival order (online experiments)

solve options:
  --algo A          engine registry name: ls | lpt | multifit | ptas | par-ptas |
                    fptas | exact | milp | ptas-q | lpt-q | ls-online
                    (aliases: pptas, qptas, speed-lpt, online)
  --eps E           PTAS accuracy (default 0.3)
  --threads T       most worker threads of the wavefront DP in par-ptas and
                    ptas-q (DP tables too small to pay for a pool sweep on
                    one); unset, they use all cores
  --budget B        search-node budget for exact/milp
  --schedule        also print the full per-machine assignment

compare options:
  --family F        restrict the comparison to one scenario: p | q | online
                    (default: q when the instance has speeds, else p)
  --metrics FILE    also persist a JSON metrics-registry snapshot to FILE

metrics options:
  --families LIST   comma-separated scenario families (default p,q,online)
  --count C         instances per family (default 3)
  --eps E           PTAS accuracy (default 0.3)
  --threads T       most worker threads of the wavefront DP in par-ptas and
                    ptas-q (DP tables too small to pay for a pool sweep on
                    one); unset, they use all cores
  --seed S          base RNG seed for the workload mix (default 1)
  --format F        registry export format: prom | json (default json)
  --out FILE        write the export to FILE (without --out, an explicit
                    --format dumps the export to stdout after the table)

simulate options:
  --procs LIST      comma-separated processor counts (default 1,2,4,8,16)
  --eps E           PTAS accuracy (default 0.3)

trace usage:
  pcmax trace <algo> [instance.json] [common options]
  --out FILE        write a Chrome-trace / Perfetto JSON timeline to FILE
  --summary         print the ASCII per-worker utilization summary
                    (default when --out is not given)

serve options:
  --addr A          listen address (default 127.0.0.1:7077)
  --workers W       engine worker threads (default: one per core)
  --capacity C      max in-flight submissions before shedding (default 256)
  --cache N         instance-profile cache capacity (default 4096)

client usage:
  pcmax client solve <algo> [instance.json] [common options]
  pcmax client shutdown        stop the daemon and print its bye totals
  --addr A          daemon address (default 127.0.0.1:7077)
  --eps E           accuracy forwarded to approximation solvers (default 0.3)
  --threads T       most worker threads forwarded to parallel solvers
  --timeout-ms MS   per-request budget; queue time counts
  --repeat R        send the instance R times (repeats hit the server cache)";

/// Where the instance comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// JSON file path (`-` = stdin).
    File(String),
    /// Generated from a family.
    Generated {
        /// Processing-time distribution.
        dist: Distribution,
        /// Number of machines.
        machines: usize,
        /// Number of jobs.
        jobs: usize,
        /// RNG seed.
        seed: u64,
        /// With `Some(s)`, machine speeds come from `U(1,s)` (a `Q||Cmax`
        /// instance); `None` keeps identical machines.
        speed_max: Option<u64>,
        /// Re-order jobs by an independent Fisher–Yates shuffle so the index
        /// order is a random arrival stream (online experiments).
        shuffle: bool,
    },
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `pcmax generate`
    Generate(Source),
    /// `pcmax bounds`
    Bounds(Source),
    /// `pcmax solve`
    Solve {
        /// Instance source.
        source: Source,
        /// Algorithm name.
        algo: String,
        /// PTAS accuracy.
        eps: f64,
        /// Most worker threads for the parallel PTAS.
        threads: Option<usize>,
        /// Node budget for the exact solvers.
        budget: Option<u64>,
        /// Print the full assignment.
        schedule: bool,
    },
    /// `pcmax compare`
    Compare {
        /// Instance source.
        source: Source,
        /// Scenario filter (`p` / `q` / `online`); `None` infers from the
        /// instance.
        family: Option<String>,
        /// Persist a JSON metrics-registry snapshot to this path.
        metrics: Option<String>,
    },
    /// `pcmax simulate`
    Simulate {
        /// Instance source.
        source: Source,
        /// Processor counts.
        procs: Vec<usize>,
        /// PTAS accuracy.
        eps: f64,
    },
    /// `pcmax metrics`
    Metrics {
        /// Scenario families to run (`p` / `q` / `online`).
        families: Vec<String>,
        /// Instances per family.
        count: usize,
        /// PTAS accuracy.
        eps: f64,
        /// Most worker threads for the parallel solvers.
        threads: Option<usize>,
        /// Base RNG seed for the workload mix.
        seed: u64,
        /// Registry export format (`prom` / `json`); `None` when the flag
        /// was not given (scoreboard only, unless `--out` asks for a file).
        format: Option<String>,
        /// Export file path.
        out: Option<String>,
    },
    /// `pcmax trace`
    Trace {
        /// Instance source.
        source: Source,
        /// Algorithm name (positional, before the flags).
        algo: String,
        /// PTAS accuracy.
        eps: f64,
        /// Most worker threads for the parallel PTAS.
        threads: Option<usize>,
        /// Chrome-trace JSON output path.
        out: Option<String>,
        /// Print the ASCII utilization summary.
        summary: bool,
    },
    /// `pcmax serve`
    Serve {
        /// Listen address.
        addr: String,
        /// Engine worker threads; `None` = one per core.
        workers: Option<usize>,
        /// Max in-flight submissions before load shedding.
        capacity: usize,
        /// Instance-profile cache capacity.
        cache: usize,
    },
    /// `pcmax client solve`
    ClientSolve {
        /// Daemon address.
        addr: String,
        /// Solver name (positional, before the flags).
        algo: String,
        /// Instance source.
        source: Source,
        /// Accuracy forwarded to approximation solvers.
        eps: f64,
        /// Most worker threads forwarded to parallel solvers.
        threads: Option<usize>,
        /// Per-request budget in milliseconds (queue time counts).
        timeout_ms: Option<u64>,
        /// How many times to send the instance (repeats hit the cache).
        repeat: usize,
    },
    /// `pcmax client shutdown`
    ClientShutdown {
        /// Daemon address.
        addr: String,
    },
}

/// Default daemon address shared by `serve` and `client`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7077";

/// Parses a distribution name as printed by `Distribution::to_string`.
pub fn parse_dist(s: &str) -> Result<Distribution, String> {
    let canon = s.replace(' ', "");
    Ok(match canon.as_str() {
        "U(1,10)" => Distribution::U1To10,
        "U(1,100)" => Distribution::U1To100,
        "U(1,2m-1)" => Distribution::U1TwoMMinus1,
        "U(1,10n)" => Distribution::U1To10N,
        "U(m,2m-1)" => Distribution::UMTo2MMinus1,
        "U(95,105)" => Distribution::U95To105,
        other => {
            // U(lo,hi)
            let inner = other
                .strip_prefix("U(")
                .and_then(|x| x.strip_suffix(')'))
                .ok_or_else(|| format!("unknown distribution {s}"))?;
            let (lo, hi) = inner
                .split_once(',')
                .ok_or_else(|| format!("bad interval {s}"))?;
            let lo: u64 = lo.parse().map_err(|e| format!("bad lo: {e}"))?;
            let hi: u64 = hi.parse().map_err(|e| format!("bad hi: {e}"))?;
            if lo < 1 || lo > hi {
                return Err(format!("bad interval U({lo},{hi}): need 1 <= lo <= hi"));
            }
            Distribution::Uniform { lo, hi }
        }
    })
}

struct Flags<'a> {
    argv: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(argv: &'a [String]) -> Self {
        Self {
            argv,
            used: vec![false; argv.len()],
        }
    }

    fn value(&mut self, names: &[&str]) -> Result<Option<String>, String> {
        for i in 0..self.argv.len() {
            if !self.used[i] && names.contains(&self.argv[i].as_str()) {
                let v = self
                    .argv
                    .get(i + 1)
                    .ok_or_else(|| format!("{} needs a value", self.argv[i]))?;
                self.used[i] = true;
                self.used[i + 1] = true;
                return Ok(Some(v.clone()));
            }
        }
        Ok(None)
    }

    fn flag(&mut self, name: &str) -> bool {
        for i in 0..self.argv.len() {
            if !self.used[i] && self.argv[i] == name {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn finish(self) -> Result<(), String> {
        for (i, used) in self.used.iter().enumerate() {
            if !used {
                return Err(format!("unexpected argument {}", self.argv[i]));
            }
        }
        Ok(())
    }
}

fn parse_source(flags: &mut Flags<'_>) -> Result<Source, String> {
    if let Some(path) = flags.value(&["-i", "--input"])? {
        return Ok(Source::File(path));
    }
    let dist = parse_dist(
        &flags
            .value(&["--dist"])?
            .ok_or("need either -i FILE or --dist/-m/-n")?,
    )?;
    let machines = flags
        .value(&["-m", "--machines"])?
        .ok_or("--dist needs -m")?
        .parse()
        .map_err(|e| format!("bad -m: {e}"))?;
    let jobs = flags
        .value(&["-n", "--jobs"])?
        .ok_or("--dist needs -n")?
        .parse()
        .map_err(|e| format!("bad -n: {e}"))?;
    let seed = flags
        .value(&["--seed"])?
        .map(|s| s.parse::<u64>())
        .transpose()
        .map_err(|e| format!("bad --seed: {e}"))?
        .unwrap_or(1);
    let speed_max = flags
        .value(&["--speed-max"])?
        .map(|s| s.parse::<u64>())
        .transpose()
        .map_err(|e| format!("bad --speed-max: {e}"))?;
    if speed_max == Some(0) {
        return Err("--speed-max must be at least 1".into());
    }
    let shuffle = flags.flag("--shuffle");
    if shuffle && speed_max.is_some() {
        return Err("--shuffle and --speed-max are mutually exclusive".into());
    }
    Ok(Source::Generated {
        dist,
        machines,
        jobs,
        seed,
        speed_max,
        shuffle,
    })
}

/// Parses `pcmax trace <algo> [instance-file] [flags]`: the algorithm is a
/// positional argument, an optional second positional names an instance
/// file, and the usual `-i`/`--dist` source flags still work.
fn parse_trace(rest: &[String]) -> Result<Command, String> {
    let (algo, rest) = rest.split_first().ok_or("trace needs an algorithm name")?;
    if algo.starts_with('-') {
        return Err("trace needs an algorithm name before any flags".into());
    }
    let (positional, rest) = match rest.split_first() {
        Some((p, r)) if !p.starts_with('-') => (Some(p.clone()), r),
        _ => (None, rest),
    };
    let mut flags = Flags::new(rest);
    let source = match positional {
        Some(path) => Source::File(path),
        None => parse_source(&mut flags)?,
    };
    let eps = flags
        .value(&["--eps"])?
        .map(|s| s.parse::<f64>())
        .transpose()
        .map_err(|e| format!("bad --eps: {e}"))?
        .unwrap_or(0.3);
    let threads = flags
        .value(&["--threads"])?
        .map(|s| s.parse::<usize>())
        .transpose()
        .map_err(|e| format!("bad --threads: {e}"))?;
    let out = flags.value(&["--out", "-o"])?;
    // Without an export path the summary is the only useful output.
    let summary = flags.flag("--summary") || out.is_none();
    flags.finish()?;
    Ok(Command::Trace {
        source,
        algo: algo.clone(),
        eps,
        threads,
        out,
        summary,
    })
}

/// Parses `pcmax client solve <algo> [instance-file] [flags]` and
/// `pcmax client shutdown [--addr A]`.
fn parse_client(rest: &[String]) -> Result<Command, String> {
    let (action, rest) = rest
        .split_first()
        .ok_or("client needs an action: solve | shutdown")?;
    match action.as_str() {
        "shutdown" => {
            let mut flags = Flags::new(rest);
            let addr = flags
                .value(&["--addr"])?
                .unwrap_or_else(|| DEFAULT_ADDR.into());
            flags.finish()?;
            Ok(Command::ClientShutdown { addr })
        }
        "solve" => {
            let (algo, rest) = rest
                .split_first()
                .ok_or("client solve needs a solver name")?;
            if algo.starts_with('-') {
                return Err("client solve needs a solver name before any flags".into());
            }
            let (positional, rest) = match rest.split_first() {
                Some((p, r)) if !p.starts_with('-') => (Some(p.clone()), r),
                _ => (None, rest),
            };
            let mut flags = Flags::new(rest);
            let source = match positional {
                Some(path) => Source::File(path),
                None => parse_source(&mut flags)?,
            };
            let addr = flags
                .value(&["--addr"])?
                .unwrap_or_else(|| DEFAULT_ADDR.into());
            let eps = flags
                .value(&["--eps"])?
                .map(|s| s.parse::<f64>())
                .transpose()
                .map_err(|e| format!("bad --eps: {e}"))?
                .unwrap_or(0.3);
            let threads = flags
                .value(&["--threads"])?
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad --threads: {e}"))?;
            let timeout_ms = flags
                .value(&["--timeout-ms"])?
                .map(|s| s.parse::<u64>())
                .transpose()
                .map_err(|e| format!("bad --timeout-ms: {e}"))?;
            let repeat = flags
                .value(&["--repeat"])?
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad --repeat: {e}"))?
                .unwrap_or(1);
            if repeat == 0 {
                return Err("--repeat must be at least 1".into());
            }
            flags.finish()?;
            Ok(Command::ClientSolve {
                addr,
                algo: algo.clone(),
                source,
                eps,
                threads,
                timeout_ms,
                repeat,
            })
        }
        other => Err(format!(
            "unknown client action {other} (known: solve, shutdown)"
        )),
    }
}

/// Parses the full argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let (cmd, rest) = argv.split_first().ok_or("missing command")?;
    if cmd == "trace" {
        return parse_trace(rest);
    }
    if cmd == "client" {
        return parse_client(rest);
    }
    let mut flags = Flags::new(rest);
    let parsed = match cmd.as_str() {
        "generate" => Command::Generate(parse_source(&mut flags)?),
        "bounds" => Command::Bounds(parse_source(&mut flags)?),
        "compare" => {
            let source = parse_source(&mut flags)?;
            let family = flags.value(&["--family"])?;
            let metrics = flags.value(&["--metrics"])?;
            Command::Compare {
                source,
                family,
                metrics,
            }
        }
        "metrics" => {
            let families: Vec<String> = flags
                .value(&["--families"])?
                .unwrap_or_else(|| "p,q,online".into())
                .split(',')
                .map(|f| f.trim().to_string())
                .filter(|f| !f.is_empty())
                .collect();
            if families.is_empty() {
                return Err("--families needs at least one family".into());
            }
            let count = flags
                .value(&["--count"])?
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad --count: {e}"))?
                .unwrap_or(3);
            if count == 0 {
                return Err("--count must be at least 1".into());
            }
            let eps = flags
                .value(&["--eps"])?
                .map(|s| s.parse::<f64>())
                .transpose()
                .map_err(|e| format!("bad --eps: {e}"))?
                .unwrap_or(0.3);
            let threads = flags
                .value(&["--threads"])?
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad --threads: {e}"))?;
            let seed = flags
                .value(&["--seed"])?
                .map(|s| s.parse::<u64>())
                .transpose()
                .map_err(|e| format!("bad --seed: {e}"))?
                .unwrap_or(1);
            let format = flags.value(&["--format"])?;
            if let Some(f) = &format {
                if f != "prom" && f != "json" {
                    return Err(format!("bad --format {f} (known: prom, json)"));
                }
            }
            let out = flags.value(&["--out", "-o"])?;
            Command::Metrics {
                families,
                count,
                eps,
                threads,
                seed,
                format,
                out,
            }
        }
        "solve" => {
            let source = parse_source(&mut flags)?;
            let algo = flags.value(&["--algo"])?.unwrap_or_else(|| "pptas".into());
            let eps = flags
                .value(&["--eps"])?
                .map(|s| s.parse::<f64>())
                .transpose()
                .map_err(|e| format!("bad --eps: {e}"))?
                .unwrap_or(0.3);
            let threads = flags
                .value(&["--threads"])?
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad --threads: {e}"))?;
            let budget = flags
                .value(&["--budget"])?
                .map(|s| s.parse::<u64>())
                .transpose()
                .map_err(|e| format!("bad --budget: {e}"))?;
            let schedule = flags.flag("--schedule");
            Command::Solve {
                source,
                algo,
                eps,
                threads,
                budget,
                schedule,
            }
        }
        "simulate" => {
            let source = parse_source(&mut flags)?;
            let procs = flags
                .value(&["--procs"])?
                .unwrap_or_else(|| "1,2,4,8,16".into())
                .split(',')
                .map(|p| p.trim().parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("bad --procs: {e}"))?;
            let eps = flags
                .value(&["--eps"])?
                .map(|s| s.parse::<f64>())
                .transpose()
                .map_err(|e| format!("bad --eps: {e}"))?
                .unwrap_or(0.3);
            Command::Simulate { source, procs, eps }
        }
        "serve" => {
            let addr = flags
                .value(&["--addr"])?
                .unwrap_or_else(|| DEFAULT_ADDR.into());
            let workers = flags
                .value(&["--workers"])?
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad --workers: {e}"))?;
            if workers == Some(0) {
                return Err("--workers must be at least 1".into());
            }
            let capacity = flags
                .value(&["--capacity"])?
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad --capacity: {e}"))?
                .unwrap_or(256);
            let cache = flags
                .value(&["--cache"])?
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad --cache: {e}"))?
                .unwrap_or(4096);
            Command::Serve {
                addr,
                workers,
                capacity,
                cache,
            }
        }
        other => return Err(format!("unknown command {other}")),
    };
    flags.finish()?;
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate_with_family() {
        let cmd = parse(&argv("generate --dist U(1,100) -m 10 -n 50 --seed 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate(Source::Generated {
                dist: Distribution::U1To100,
                machines: 10,
                jobs: 50,
                seed: 7,
                speed_max: None,
                shuffle: false,
            })
        );
    }

    #[test]
    fn parses_uniform_and_online_sources() {
        let cmd = parse(&argv("generate --dist U(1,100) -m 4 -n 20 --speed-max 5")).unwrap();
        match cmd {
            Command::Generate(Source::Generated {
                speed_max, shuffle, ..
            }) => {
                assert_eq!(speed_max, Some(5));
                assert!(!shuffle);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("generate --dist U(1,100) -m 4 -n 20 --shuffle")).unwrap();
        assert!(matches!(
            cmd,
            Command::Generate(Source::Generated { shuffle: true, .. })
        ));
        assert!(
            parse(&argv(
                "generate --dist U(1,10) -m 2 -n 4 --speed-max 3 --shuffle"
            ))
            .is_err(),
            "speeds and shuffling are mutually exclusive"
        );
        assert!(parse(&argv("generate --dist U(1,10) -m 2 -n 4 --speed-max 0")).is_err());
    }

    #[test]
    fn parses_compare_family_filter() {
        let cmd = parse(&argv("compare -i inst.json --family q")).unwrap();
        match cmd {
            Command::Compare {
                source,
                family,
                metrics,
            } => {
                assert_eq!(source, Source::File("inst.json".into()));
                assert_eq!(family.as_deref(), Some("q"));
                assert_eq!(metrics, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("compare -i inst.json")).unwrap();
        assert!(matches!(cmd, Command::Compare { family: None, .. }));
    }

    #[test]
    fn parses_compare_metrics_snapshot_path() {
        let cmd = parse(&argv("compare -i inst.json --metrics snap.json")).unwrap();
        match cmd {
            Command::Compare { metrics, .. } => {
                assert_eq!(metrics.as_deref(), Some("snap.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_metrics_with_defaults() {
        let cmd = parse(&argv("metrics")).unwrap();
        match cmd {
            Command::Metrics {
                families,
                count,
                eps,
                threads,
                seed,
                format,
                out,
            } => {
                assert_eq!(families, vec!["p", "q", "online"]);
                assert_eq!(count, 3);
                assert_eq!(eps, 0.3);
                assert_eq!(threads, None);
                assert_eq!(seed, 1);
                assert_eq!(format, None);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_metrics_with_export_flags() {
        let cmd = parse(&argv(
            "metrics --families p,q --count 2 --threads 2 --seed 9 --format prom --out m.prom",
        ))
        .unwrap();
        match cmd {
            Command::Metrics {
                families,
                count,
                threads,
                seed,
                format,
                out,
                ..
            } => {
                assert_eq!(families, vec!["p", "q"]);
                assert_eq!(count, 2);
                assert_eq!(threads, Some(2));
                assert_eq!(seed, 9);
                assert_eq!(format.as_deref(), Some("prom"));
                assert_eq!(out.as_deref(), Some("m.prom"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("metrics --format yaml")).is_err());
        assert!(parse(&argv("metrics --count 0")).is_err());
        assert!(parse(&argv("metrics --families ,")).is_err());
    }

    #[test]
    fn parses_solve_with_defaults() {
        let cmd = parse(&argv("solve -i inst.json")).unwrap();
        match cmd {
            Command::Solve {
                source,
                algo,
                eps,
                threads,
                budget,
                schedule,
            } => {
                assert_eq!(source, Source::File("inst.json".into()));
                assert_eq!(algo, "pptas");
                assert_eq!(eps, 0.3);
                assert_eq!(threads, None);
                assert_eq!(budget, None);
                assert!(!schedule);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_custom_uniform() {
        assert_eq!(
            parse_dist("U(5,42)").unwrap(),
            Distribution::Uniform { lo: 5, hi: 42 }
        );
        assert!(parse_dist("gaussian").is_err());
    }

    #[test]
    fn parses_simulate_procs() {
        let cmd = parse(&argv("simulate -i - --procs 2,4,8")).unwrap();
        match cmd {
            Command::Simulate { procs, .. } => assert_eq!(procs, vec![2, 4, 8]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_command_and_stray_args() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("bounds -i x.json --bogus")).is_err());
        assert!(
            parse(&argv("generate --dist U(1,10)")).is_err(),
            "missing -m/-n"
        );
    }

    #[test]
    fn parses_trace_with_positional_algo_and_file() {
        let cmd = parse(&argv("trace par-ptas inst.json --out t.json")).unwrap();
        match cmd {
            Command::Trace {
                source,
                algo,
                out,
                summary,
                ..
            } => {
                assert_eq!(source, Source::File("inst.json".into()));
                assert_eq!(algo, "par-ptas");
                assert_eq!(out.as_deref(), Some("t.json"));
                assert!(!summary, "--out without --summary stays quiet");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_defaults_to_summary_and_accepts_generated_sources() {
        let cmd = parse(&argv("trace pptas --dist U(1,100) -m 4 -n 20 --threads 2")).unwrap();
        match cmd {
            Command::Trace {
                source,
                threads,
                out,
                summary,
                ..
            } => {
                assert!(matches!(source, Source::Generated { machines: 4, .. }));
                assert_eq!(threads, Some(2));
                assert_eq!(out, None);
                assert!(summary, "no --out means the summary is the output");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("trace")).is_err(), "algo is mandatory");
        assert!(
            parse(&argv("trace --out t.json")).is_err(),
            "flags cannot replace the positional algo"
        );
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let cmd = parse(&argv("serve")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: DEFAULT_ADDR.into(),
                workers: None,
                capacity: 256,
                cache: 4096,
            }
        );
        let cmd = parse(&argv(
            "serve --addr 127.0.0.1:9000 --workers 2 --capacity 32 --cache 64",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:9000".into(),
                workers: Some(2),
                capacity: 32,
                cache: 64,
            }
        );
        assert!(parse(&argv("serve --workers 0")).is_err());
    }

    #[test]
    fn parses_client_solve_and_shutdown() {
        let cmd = parse(&argv(
            "client solve pptas --dist U(1,100) -m 4 -n 20 --repeat 3 --timeout-ms 500",
        ))
        .unwrap();
        match cmd {
            Command::ClientSolve {
                addr,
                algo,
                source,
                repeat,
                timeout_ms,
                ..
            } => {
                assert_eq!(addr, DEFAULT_ADDR);
                assert_eq!(algo, "pptas");
                assert!(matches!(source, Source::Generated { machines: 4, .. }));
                assert_eq!(repeat, 3);
                assert_eq!(timeout_ms, Some(500));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("client solve lpt inst.json --addr 127.0.0.1:9000")).unwrap();
        match cmd {
            Command::ClientSolve { addr, source, .. } => {
                assert_eq!(addr, "127.0.0.1:9000");
                assert_eq!(source, Source::File("inst.json".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("client shutdown")).unwrap();
        assert_eq!(
            cmd,
            Command::ClientShutdown {
                addr: DEFAULT_ADDR.into()
            }
        );
        assert!(parse(&argv("client")).is_err(), "action is mandatory");
        assert!(parse(&argv("client solve")).is_err(), "solver is mandatory");
        assert!(parse(&argv("client frobnicate")).is_err());
        assert!(parse(&argv("client solve lpt inst.json --repeat 0")).is_err());
    }

    #[test]
    fn seed_defaults_to_one() {
        let cmd = parse(&argv("bounds --dist U(1,10) -m 2 -n 4")).unwrap();
        match cmd {
            Command::Bounds(Source::Generated { seed, .. }) => assert_eq!(seed, 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}

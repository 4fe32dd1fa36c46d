//! The traced run's per-layer breakdown.
//!
//! Every layer is timed by the benchmark around the program's public
//! functions; no program-internal hook is switched on. The requests whose
//! latency lies in the 40th–60th percentile band of the traced phase (the
//! "p50 band") are broken down: wire and transport costs are replayed on
//! their own frames, and their PTAS probes are replayed from the probe log
//! (`PtasOutput.log`) through the rounding, configuration, table, sweep,
//! extraction and reconstruction functions. The layers' mean self-times
//! over the band are compared with the band's mean latency; the remainder
//! is `bench.unaccounted_frac`.

use crate::spans::{Span, REPLAY_TID};
use crate::stats::{mean, median, ms, percentile, us};
use crate::workload::{pinned_large_instance, Phase, Request, LARGE_EPS, LARGE_THREADS};
use pcmax_core::json::{FromJson, ToJson};
use pcmax_core::wire::{encode_frame, read_frame, WireRequest, WireResponse};
use pcmax_core::{Instance, MakespanBounds, SolveRequest, Solver};
use pcmax_engine::{Engine, EngineConfig, SolverParams, Submission};
use pcmax_parallel::wavefront::bucketed_sweep_space;
use pcmax_parallel::ParallelPtas;
use pcmax_ptas::dp::{finish, DpProblem};
use pcmax_ptas::driver::reconstruct;
use pcmax_ptas::rounding::{PcmaxRounding, Rounding};
use pcmax_ptas::space::PcmaxSpace;
use pcmax_ptas::table::{DpScratch, DpTable};
use pcmax_ptas::{rounded_problem, EpsilonParams};
use pcmax_simcore::{simulate_ptas, SimParams};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Largest share of the p50 band's latency the layers may leave
/// unaccounted on `solve-large` and `serve-repeat`.
pub const UNACCOUNTED_TOLERANCE: f64 = 0.15;
/// Tables below this many cells count as small sweeps.
const SMALL_TABLE: usize = 10_000;
/// At most this many p50-band requests are broken down.
const BAND_SAMPLE: usize = 200;
/// Repetitions behind each figure measured on the pinned instance.
const FIGURE_REPS: usize = 3;

fn err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Times of one replayed probe.
#[derive(Debug, Clone, Default)]
struct ProbeTimes {
    fingerprint: Duration,
    rounding: Duration,
    table_build: Duration,
    config_enum: Duration,
    sweep: Duration,
    sweep_1t: Duration,
    extract: Duration,
    cells: u64,
    levels: u64,
    configs: u64,
}

/// One instance's solve replayed probe by probe.
#[derive(Debug, Clone, Default)]
struct Replay {
    reserve_rounding: Duration,
    probes: Vec<ProbeTimes>,
    reconstruct: Duration,
}

impl Replay {
    fn sum(&self, f: impl Fn(&ProbeTimes) -> Duration) -> Duration {
        self.probes.iter().map(f).sum()
    }
}

/// Replays the solve of `inst` at `threads` from its probe log, checking
/// every probe verdict and the final schedule against the program's own.
fn replay(
    inst: &Instance,
    eps: f64,
    threads: usize,
    spans: &mut Vec<Span>,
    request: u64,
) -> io::Result<Replay> {
    let params = EpsilonParams::new(eps).map_err(err)?;
    let out = ParallelPtas::with_threads(eps, threads)
        .map_err(err)?
        .driver()
        .solve_detailed(inst)
        .map_err(err)?;
    let max = DpProblem::DEFAULT_MAX_ENTRIES;
    let mut span = |name: &'static str, start: Instant, end: Instant| {
        spans.push(Span {
            name,
            tid: REPLAY_TID,
            request,
            start,
            end,
        })
    };
    let mut r = Replay::default();
    let mut scratch = DpScratch::new();
    let t0 = Instant::now();
    let (first, _, _) = rounded_problem(inst, &params, MakespanBounds::of(inst).lower.max(1), max);
    if let Some(entries) = DpTable::entries_needed(&first.counts, first.unit, max) {
        scratch.reserve(entries);
    }
    r.reserve_rounding = t0.elapsed();
    let mut witness = None;
    for probe in &out.log.probes {
        let t0 = Instant::now();
        let fingerprint = PcmaxRounding { params: &params }.fingerprint(inst, probe.target);
        let t1 = Instant::now();
        let (problem, rounded, partition) = rounded_problem(inst, &params, probe.target, max);
        let t2 = Instant::now();
        let mut table = problem
            .build_level_major_table_in(&mut scratch)
            .map_err(err)?;
        let t3 = Instant::now();
        let configs = problem.configs_with_offsets(&table);
        let t4 = Instant::now();
        table.values[0] = 0;
        bucketed_sweep_space(
            &mut table,
            &PcmaxSpace::new(&configs),
            threads,
            &mut scratch,
        );
        let t5 = Instant::now();
        table.values[0] = 0;
        bucketed_sweep_space(&mut table, &PcmaxSpace::new(&configs), 1, &mut scratch);
        let t6 = Instant::now();
        let (cells, levels) = ((table.len - 1) as u64, table.levels() as u64);
        let outcome = finish(&problem, table, &configs, &mut scratch).map_err(err)?;
        let t7 = Instant::now();
        std::hint::black_box(fingerprint);
        if outcome.machines != probe.dp_machines {
            return Err(err(format!(
                "replayed probe at T={} needs {} machines, the solve saw {}",
                probe.target, outcome.machines, probe.dp_machines
            )));
        }
        if probe.target == out.target {
            if let Some(s) = outcome.schedule {
                witness = Some((s, rounded, partition));
            }
        }
        for (name, a, b) in [
            ("ptas.rounding", t1, t2),
            ("ptas.table_build", t2, t3),
            ("ptas.config_enum", t3, t4),
            ("wavefront.sweep", t4, t5),
            ("wavefront.sweep_1t", t5, t6),
            ("ptas.extract", t6, t7),
        ] {
            span(name, a, b);
        }
        r.probes.push(ProbeTimes {
            fingerprint: t1 - t0,
            rounding: t2 - t1,
            table_build: t3 - t2,
            config_enum: t4 - t3,
            sweep: t5 - t4,
            sweep_1t: t6 - t5,
            extract: t7 - t6,
            cells,
            levels,
            configs: configs.len() as u64,
        });
    }
    let (configs, rounded, partition) =
        witness.ok_or_else(|| err("no feasible probe at the certified target"))?;
    let t0 = Instant::now();
    let schedule = reconstruct(inst, &configs, &rounded, &partition).map_err(err)?;
    let t1 = Instant::now();
    span("ptas.reconstruct", t0, t1);
    r.reconstruct = t1 - t0;
    if schedule != out.schedule {
        return Err(err("replayed reconstruction differs from the solve"));
    }
    Ok(r)
}

/// Wire costs of one request/response pair, replayed on its own frames.
#[derive(Debug, Clone, Copy, Default)]
struct WireTimes {
    encode: Duration,
    decode: Duration,
    bytes: u64,
}

fn wire_times(
    wire: &WireRequest,
    response: &WireResponse,
) -> io::Result<(WireTimes, Vec<u8>, Vec<u8>)> {
    let t0 = Instant::now();
    let req_frame = encode_frame(&wire.to_json());
    let t1 = Instant::now();
    let value = read_frame(&mut &req_frame[..])?.ok_or_else(|| err("empty frame"))?;
    let decoded = WireRequest::from_json(&value).map_err(err)?;
    let t2 = Instant::now();
    let resp_frame = encode_frame(&response.to_json());
    let t3 = Instant::now();
    let value = read_frame(&mut &resp_frame[..])?.ok_or_else(|| err("empty frame"))?;
    let back = WireResponse::from_json(&value).map_err(err)?;
    let t4 = Instant::now();
    if decoded != *wire || back != *response {
        return Err(err("wire round trip changed a frame"));
    }
    let times = WireTimes {
        encode: (t1 - t0) + (t3 - t2),
        decode: (t2 - t1) + (t4 - t3),
        bytes: (req_frame.len() + resp_frame.len()) as u64,
    };
    Ok((times, req_frame, resp_frame))
}

/// Median loopback round trip of a request-sized frame out and a
/// response-sized frame back between two threads: the transport cost a
/// daemon request pays besides the codec and the engine.
fn transport_round_trip(request: &[u8], response: &[u8]) -> io::Result<Duration> {
    const ROUNDS: usize = 400;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            let mut buf = vec![0u8; request.len()];
            for _ in 0..ROUNDS {
                stream.read_exact(&mut buf)?;
                stream.write_all(response)?;
            }
            Ok(())
        });
        let result = (|| -> io::Result<Duration> {
            let mut stream = TcpStream::connect(addr)?;
            let mut buf = vec![0u8; response.len()];
            let mut rounds = Vec::with_capacity(ROUNDS);
            for _ in 0..ROUNDS {
                let t0 = Instant::now();
                stream.write_all(request)?;
                stream.read_exact(&mut buf)?;
                rounds.push(t0.elapsed().as_secs_f64());
            }
            Ok(Duration::from_secs_f64(median(&rounds)))
        })();
        let echoed = echo.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        let rtt = result?;
        echoed?;
        Ok(rtt)
    })
}

/// Process-wide registry counters read around the traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry {
    parks: u64,
    wakes: u64,
    busy: u64,
    extent: u64,
    rejected: u64,
}

impl Registry {
    pub fn read() -> Self {
        let snap = pcmax_metrics::snapshot();
        let sum = |name: &str| -> u64 {
            snap.samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| match s.value {
                    pcmax_metrics::SampleValue::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        };
        Self {
            parks: sum("pcmax_pool_parks_total"),
            wakes: sum("pcmax_pool_wakes_total"),
            busy: sum("pcmax_worker_busy_nanos_total"),
            extent: sum("pcmax_pool_extent_nanos_total"),
            rejected: sum("pcmax_engine_rejected_total"),
        }
    }

    pub fn since(self, before: Self) -> Self {
        Self {
            parks: self.parks.saturating_sub(before.parks),
            wakes: self.wakes.saturating_sub(before.wakes),
            busy: self.busy.saturating_sub(before.busy),
            extent: self.extent.saturating_sub(before.extent),
            rejected: self.rejected.saturating_sub(before.rejected),
        }
    }
}

/// The layers a request's latency is broken into, in table order.
const LAYERS: [&str; 11] = [
    "engine.submit",
    "engine.queue_wait",
    "wire.encode",
    "wire.decode",
    "serve.transport",
    "ptas.rounding",
    "ptas.config_enum",
    "ptas.table_build",
    "wavefront.sweep",
    "ptas.extract",
    "ptas.reconstruct",
];

/// One layer of the table: its mean self-time and calls per band request.
pub struct LayerRow {
    pub layer: &'static str,
    pub self_ms: f64,
    pub calls: f64,
}

/// What the traced run found.
pub struct LayerReport {
    /// `(name, value, unit)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub table: Vec<LayerRow>,
    pub band_latency_ms: f64,
    pub band_requests: usize,
    pub unaccounted_frac: f64,
    /// Side-by-side speedups on the pinned instance (`solve-large` only).
    pub figures: Vec<String>,
    pub spans: Vec<Span>,
}

/// Speedup figures measured on the pinned 2.57 M-cell instance.
struct PinnedFigures {
    sweep_1t: Duration,
    sweep_2t: Duration,
    solve_1t: Duration,
    solve_2t: Duration,
    simcore_2p: f64,
}

fn solve_time(inst: &Instance, eps: f64, threads: usize) -> io::Result<Duration> {
    let solver = ParallelPtas::with_threads(eps, threads).map_err(err)?;
    let t0 = Instant::now();
    solver.solve(&SolveRequest::new(inst)).map_err(err)?;
    Ok(t0.elapsed())
}

fn pinned_figures(spans: &mut Vec<Span>) -> io::Result<PinnedFigures> {
    let inst = pinned_large_instance();
    let mut sweeps_1t = Vec::new();
    let mut sweeps_2t = Vec::new();
    let mut solves_1t = Vec::new();
    let mut solves_2t = Vec::new();
    for rep in 0..FIGURE_REPS {
        let r = replay(
            &inst,
            LARGE_EPS,
            LARGE_THREADS,
            spans,
            u64::MAX - rep as u64,
        )?;
        sweeps_1t.push(r.sum(|p| p.sweep_1t).as_secs_f64());
        sweeps_2t.push(r.sum(|p| p.sweep).as_secs_f64());
        solves_1t.push(solve_time(&inst, LARGE_EPS, 1)?.as_secs_f64());
        solves_2t.push(solve_time(&inst, LARGE_EPS, LARGE_THREADS)?.as_secs_f64());
    }
    let sim = simulate_ptas(&inst, LARGE_EPS, SimParams::with_processors(2)).map_err(err)?;
    Ok(PinnedFigures {
        sweep_1t: Duration::from_secs_f64(median(&sweeps_1t)),
        sweep_2t: Duration::from_secs_f64(median(&sweeps_2t)),
        solve_1t: Duration::from_secs_f64(median(&solves_1t)),
        solve_2t: Duration::from_secs_f64(median(&solves_2t)),
        simcore_2p: sim.speedup(),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Breaks the traced phase down by layer. `plain` is the untraced phase
/// of the same run, for the tracing overhead; `registry` holds the
/// counter deltas over the traced phase.
pub fn measure(
    workload: &str,
    items: &[Request],
    plain: &Phase,
    traced: &Phase,
    registry: Registry,
) -> io::Result<LayerReport> {
    let served = workload != "solve-large";
    // The daemon's solvers use every core; `solve-large` pins its threads.
    let threads = if served {
        pcmax_parallel::effective_threads(None)
    } else {
        LARGE_THREADS
    };
    let ok: Vec<&crate::workload::Rec> = traced.recs.iter().filter(|r| r.ok).collect();
    if ok.is_empty() {
        return Err(err("no answered request in the traced phase"));
    }
    let mut by_latency = ok.clone();
    by_latency.sort_by_key(|r| r.latency);
    let lo = by_latency.len() * 2 / 5;
    let hi = (by_latency.len() * 3 / 5).max(lo + 1);
    let band_all = &by_latency[lo..hi];
    let step = band_all.len().div_ceil(BAND_SAMPLE);
    let band: Vec<&crate::workload::Rec> = band_all.iter().step_by(step).copied().collect();

    let mut spans = Vec::new();
    let mut replays: BTreeMap<usize, Replay> = BTreeMap::new();
    let mut wires: BTreeMap<usize, WireTimes> = BTreeMap::new();
    let mut submits: BTreeMap<usize, Duration> = BTreeMap::new();
    let mut frames = None;
    // An in-process engine like the daemon's: it produces each request's
    // response (for the wire replay) and times `Engine::submit`.
    let engine = Engine::with_config(EngineConfig::default());
    for rec in &band {
        let req = &items[rec.item];
        if req.identical() && !replays.contains_key(&rec.item) {
            let r = replay(&req.inst, req.eps, threads, &mut spans, rec.item as u64)?;
            replays.insert(rec.item, r);
        }
        if let std::collections::btree_map::Entry::Vacant(slot) = wires.entry(rec.item) {
            let mut params = SolverParams::with_epsilon(req.eps);
            params.threads = (!served).then_some(LARGE_THREADS);
            let submission =
                || Submission::new(req.inst.clone(), req.solver).with_params(params.clone());
            // The first submission fills the cache; the second is timed.
            engine
                .submit(submission())
                .and_then(|h| h.wait())
                .map_err(err)?;
            let sub = submission();
            let t0 = Instant::now();
            let handle = engine.submit(sub).map_err(err)?;
            let t1 = Instant::now();
            let result = handle.wait();
            submits.insert(rec.item, t1 - t0);
            let wire = req.wire(1);
            let response = WireResponse::from_result(1, &result);
            let (times, req_frame, resp_frame) = wire_times(&wire, &response)?;
            frames.get_or_insert((req_frame, resp_frame));
            slot.insert(times);
        }
    }
    engine.shutdown();
    let transport = match (&frames, served) {
        (Some((req, resp)), true) => transport_round_trip(req, resp)?,
        _ => Duration::ZERO,
    };

    // Mean self-time and calls per band request of every layer.
    let mut totals: BTreeMap<&'static str, (f64, f64)> =
        LAYERS.iter().map(|&l| (l, (0.0, 0.0))).collect();
    let mut add = |layer: &'static str, d: f64, calls: f64| {
        if let Some(total) = totals.get_mut(layer) {
            total.0 += d;
            total.1 += calls;
        }
    };
    let mut overheads = Vec::new();
    for rec in &band {
        let wire = wires[&rec.item];
        let submit = if served {
            submits[&rec.item]
        } else {
            rec.submit
        };
        if let Some(r) = replays.get(&rec.item) {
            let miss_share = if served && rec.probes > 0 {
                rec.cache_misses as f64 / rec.probes as f64
            } else {
                1.0
            };
            // A cached solve fingerprints every probe before the lookup.
            let (fingerprints, fingerprint_calls) = if served {
                (r.sum(|p| p.fingerprint), r.probes.len())
            } else {
                (Duration::ZERO, 0)
            };
            let probes = r.probes.len() as f64;
            let dp_calls = probes * miss_share;
            let rounding = ms(r.reserve_rounding + r.sum(|p| p.rounding) + fingerprints);
            let parts = [
                (
                    "ptas.rounding",
                    rounding,
                    1.0 + probes + fingerprint_calls as f64,
                ),
                (
                    "ptas.config_enum",
                    ms(r.sum(|p| p.config_enum)) * miss_share,
                    dp_calls,
                ),
                (
                    "ptas.table_build",
                    ms(r.sum(|p| p.table_build)) * miss_share,
                    dp_calls,
                ),
                (
                    "wavefront.sweep",
                    ms(r.sum(|p| p.sweep)) * miss_share,
                    dp_calls,
                ),
                (
                    "ptas.extract",
                    ms(r.sum(|p| p.extract)) * miss_share,
                    dp_calls,
                ),
                ("ptas.reconstruct", ms(r.reconstruct), 1.0),
            ];
            for (layer, d, calls) in parts {
                add(layer, d, calls);
            }
        }
        let outside = ms(rec.latency.saturating_sub(rec.wall));
        if served {
            overheads.push(outside * 1e3);
            let known = ms(wire.encode + wire.decode + transport + submit);
            // Request and response each pass the codec once.
            add("wire.encode", ms(wire.encode), 2.0);
            add("wire.decode", ms(wire.decode), 2.0);
            add("serve.transport", ms(transport), 1.0);
            add("engine.submit", ms(submit), 1.0);
            add("engine.queue_wait", (outside - known).max(0.0), 1.0);
        } else {
            add("engine.submit", ms(submit), 1.0);
            add(
                "engine.queue_wait",
                ms(rec.latency.saturating_sub(rec.submit + rec.wall)),
                1.0,
            );
        }
    }
    let n = band.len() as f64;
    let table: Vec<LayerRow> = LAYERS
        .iter()
        .map(|&layer| LayerRow {
            layer,
            self_ms: totals[layer].0 / n,
            calls: totals[layer].1 / n,
        })
        .collect();
    let band_latency_ms = band.iter().map(|r| ms(r.latency)).sum::<f64>() / n;
    let accounted: f64 = table.iter().map(|row| row.self_ms).sum();
    let unaccounted_frac = 1.0 - accounted / band_latency_ms;
    let layer = |name: &str| {
        table
            .iter()
            .find(|row| row.layer == name)
            .map_or(0.0, |row| row.self_ms)
    };

    // Probe-level aggregates over every replayed probe.
    let probes: Vec<&ProbeTimes> = replays.values().flat_map(|r| &r.probes).collect();
    let cells: u64 = probes.iter().map(|p| p.cells).sum();
    let sweep_2t: Duration = probes.iter().map(|p| p.sweep).sum();
    let sweep_1t: Duration = probes.iter().map(|p| p.sweep_1t).sum();
    let small: Vec<f64> = probes
        .iter()
        .filter(|p| (p.cells as usize) < SMALL_TABLE)
        .map(|p| us(p.sweep))
        .collect();

    let mut figures = Vec::new();
    let (sweep_1t_ms, speedup_2t, solve_speedup, simcore_2p) = if served {
        let mut solve_1t = Duration::ZERO;
        let mut solve_2t = Duration::ZERO;
        let mut seq = 0u64;
        let mut par = 0u64;
        for &item in replays.keys() {
            let Request { inst, eps, .. } = &items[item];
            solve_1t += solve_time(inst, *eps, 1)?;
            solve_2t += solve_time(inst, *eps, threads)?;
            let sim = simulate_ptas(inst, *eps, SimParams::with_processors(2)).map_err(err)?;
            seq += sim.sequential_time();
            par += sim.time();
        }
        (
            ms(sweep_1t) / replays.len().max(1) as f64,
            ratio(sweep_1t.as_secs_f64(), sweep_2t.as_secs_f64()),
            ratio(solve_1t.as_secs_f64(), solve_2t.as_secs_f64()),
            ratio(seq as f64, par as f64),
        )
    } else {
        let f = pinned_figures(&mut spans)?;
        let sweep = ratio(f.sweep_1t.as_secs_f64(), f.sweep_2t.as_secs_f64());
        let solve = ratio(f.solve_1t.as_secs_f64(), f.solve_2t.as_secs_f64());
        figures.push(format!(
            "u100-m30-n90-eps0.3 at 2 threads vs 1: sweep alone x{sweep:.3} ({:.1} ms -> {:.1} ms), \
             whole solve x{solve:.3} ({:.1} ms -> {:.1} ms), simcore predicts x{:.3} at P=2",
            ms(f.sweep_1t),
            ms(f.sweep_2t),
            ms(f.solve_1t),
            ms(f.solve_2t),
            f.simcore_2p
        ));
        (ms(f.sweep_1t), sweep, solve, f.simcore_2p)
    };

    let answered = ok.len() as f64;
    let p50 = |phase: &Phase| median(&phase.pooled_ms());
    let mut lateness = traced.late_ms.clone();
    lateness.sort_by(f64::total_cmp);
    let hits: u64 = ok.iter().map(|r| r.cache_hits).sum();
    let lookups: u64 = ok.iter().map(|r| r.cache_hits + r.cache_misses).sum();
    let identical: Vec<&&crate::workload::Rec> =
        ok.iter().filter(|r| items[r.item].identical()).collect();
    let wire_mean = |f: fn(&WireTimes) -> f64| {
        mean(&band.iter().map(|r| f(&wires[&r.item])).collect::<Vec<_>>())
    };

    let metrics = vec![
        ("wire.encode_us", wire_mean(|w| us(w.encode)), "us"),
        ("wire.decode_us", wire_mean(|w| us(w.decode)), "us"),
        ("wire.frame_bytes", wire_mean(|w| w.bytes as f64), "bytes"),
        ("serve.overhead_us", mean(&overheads), "us"),
        ("serve.transport_us", us(transport), "us"),
        ("loadgen.late_ms", percentile(&lateness, 99.0), "ms"),
        ("engine.queue_wait_ms", layer("engine.queue_wait"), "ms"),
        ("engine.submit_us", layer("engine.submit") * 1e3, "us"),
        ("engine.rejected", registry.rejected as f64, "count"),
        (
            "cache.probe_hit_frac",
            ratio(hits as f64, lookups as f64),
            "frac",
        ),
        (
            "cache.response_hit_frac",
            ratio(ok.iter().filter(|r| r.cache_hit).count() as f64, answered),
            "frac",
        ),
        (
            "ptas.probes",
            mean(
                &identical
                    .iter()
                    .map(|r| r.probes as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        ("ptas.reconstruct_us", layer("ptas.reconstruct") * 1e3, "us"),
        ("ptas.rounding_us", layer("ptas.rounding") * 1e3, "us"),
        ("ptas.config_enum_us", layer("ptas.config_enum") * 1e3, "us"),
        (
            "ptas.configs",
            mean(&probes.iter().map(|p| p.configs as f64).collect::<Vec<_>>()),
            "count",
        ),
        ("ptas.table_build_us", layer("ptas.table_build") * 1e3, "us"),
        (
            "ptas.table_cells",
            mean(&probes.iter().map(|p| p.cells as f64).collect::<Vec<_>>()),
            "count",
        ),
        ("ptas.extract_us", layer("ptas.extract") * 1e3, "us"),
        ("ptas.solve_speedup_2t", solve_speedup, "x"),
        ("wavefront.sweep_ms", layer("wavefront.sweep"), "ms"),
        (
            "wavefront.cells_per_s",
            ratio(cells as f64, sweep_2t.as_secs_f64()),
            "1/s",
        ),
        ("wavefront.small_sweep_us", median(&small), "us"),
        (
            "wavefront.levels",
            mean(&probes.iter().map(|p| p.levels as f64).collect::<Vec<_>>()),
            "count",
        ),
        ("wavefront.sweep_1t_ms", sweep_1t_ms, "ms"),
        ("wavefront.speedup_2t", speedup_2t, "x"),
        (
            "pool.parks_per_solve",
            ratio(registry.parks as f64, answered),
            "count",
        ),
        (
            "pool.wakes_per_solve",
            ratio(registry.wakes as f64, answered),
            "count",
        ),
        (
            "pool.busy_frac",
            ratio(registry.busy as f64, registry.extent as f64),
            "frac",
        ),
        ("simcore.speedup_2p", simcore_2p, "x"),
        (
            "simcore.model_error",
            ratio(simcore_2p, speedup_2t) - 1.0,
            "frac",
        ),
        (
            "bench.trace_overhead_frac",
            ratio(p50(traced), p50(plain)) - 1.0,
            "frac",
        ),
        ("bench.unaccounted_frac", unaccounted_frac, "frac"),
    ];
    Ok(LayerReport {
        metrics,
        table,
        band_latency_ms,
        band_requests: band.len(),
        unaccounted_frac,
        figures,
        spans,
    })
}

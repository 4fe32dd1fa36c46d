//! The three workloads: their inputs (all drawn from the seed), their
//! set-up, and the traffic phases that tally every request.
//!
//! * `solve-large` — one closed-loop caller on an in-process [`Engine`]
//!   (`par-ptas`, 2 threads, ε = 0.3, no profile cache) over seeded
//!   Figure 2–3 U(1,100) instances, in rounds that each start with the
//!   pinned 2.57 M-cell `u100-m30-n90-eps0.3` instance of the kernel bench.
//! * `serve-mixed` — an open loop over TCP to an in-process [`Server`]:
//!   Poisson arrivals at a fixed rate, every instance sent once, drawn from
//!   all 24 paper families, with a fixed share of `ptas-q` requests.
//! * `serve-repeat` — two closed-loop connections lapping a 48-instance
//!   pool, so nearly every answer comes from the profile cache.

use crate::check::{check, Answer};
use crate::spans::Span;
use pcmax_core::json::{FromJson, ToJson};
use pcmax_core::rng::SplitMix64;
use pcmax_core::wire::{
    encode_frame, read_frame, WireOp, WireOutcome, WireRequest, WireResponse, WireSolve,
};
use pcmax_core::Instance;
use pcmax_engine::{Engine, EngineConfig, SolverParams, Submission};
use pcmax_serve::{Client, Server, ServerConfig};
use pcmax_workloads::{
    generate, generate_uniform, paper_families, Distribution, Family, SpeedFamily,
};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Names of the workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["solve-large", "serve-mixed", "serve-repeat"];

/// ε of `solve-large`, the paper's Figure 2–3 setting.
pub const LARGE_EPS: f64 = 0.3;
/// ε of the serve workloads, the `serve-bench` default.
const SERVE_EPS: f64 = 0.4;
/// Wavefront threads of `solve-large` (the reference host has 2 cores).
pub const LARGE_THREADS: usize = 2;
/// The seeded Figure 2 and Figure 3 shapes `(m, n)` of `solve-large`.
const LARGE_SHAPES: [(usize, usize); 2] = [(20, 100), (10, 50)];
/// Seeded instances after the pinned one in each `solve-large` round. The
/// pinned instance is 1/8 of the requests: more than the 10 % beyond the
/// p90 and fewer than half, so the median always falls on a seeded
/// instance and the tail on the pinned one.
const LARGE_ROUND: usize = 7;
/// Seeded `solve-large` instances: nine rounds make one lap.
const LARGE_POOL: usize = 9 * LARGE_ROUND;
/// Offered rate of `serve-mixed`. Offered 5 k req/s, the same traffic
/// completes ~1.9 k req/s on the 2-vCPU reference host, but as little as
/// ~330 req/s while the hypervisor steals its CPUs, and such spells
/// overflowed the admission queue at 600 and at 400 req/s. This rate stays
/// below that floor.
const MIXED_RATE: f64 = 250.0;
/// Every this-many-th `serve-mixed` request is a `Q||Cmax` one.
const MIXED_Q_EVERY: usize = 8;
/// Speed range `U(1, s)` of the `Q||Cmax` requests.
const MIXED_SPEED_MAX: u64 = 4;
/// Instances per family in the `serve-repeat` pool (24 families).
const REPEAT_PER_FAMILY: usize = 2;
/// Closed-loop connections of `serve-repeat`.
const REPEAT_CLIENTS: usize = 2;
/// Cold solves that warm up `solve-large` and `serve-mixed`.
const WARMUP: usize = 16;

/// One generated input: an instance and the solver it is sent to.
#[derive(Debug, Clone)]
pub struct Request {
    pub inst: Instance,
    pub solver: &'static str,
    pub eps: f64,
}

impl Request {
    /// Whether the request goes to the identical-machine PTAS.
    pub fn identical(&self) -> bool {
        self.solver != "ptas-q"
    }

    /// The request's `pcmax-wire/1` solve frame under id `id`.
    pub fn wire(&self, id: u64) -> WireRequest {
        WireRequest {
            id,
            op: WireOp::Solve(WireSolve {
                solver: self.solver.to_string(),
                eps: self.eps,
                threads: None,
                timeout_ms: None,
                instance: self.inst.clone(),
            }),
        }
    }
}

/// What one request measured. Latency runs from the send (closed loop) or
/// the due time (open loop) to the decoded reply.
#[derive(Debug, Clone)]
pub struct Rec {
    pub item: usize,
    pub ok: bool,
    pub latency: Duration,
    /// Solve wall time as the program reports it.
    pub wall: Duration,
    /// `Engine::submit` call (in-process only).
    pub submit: Duration,
    pub probes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit: bool,
    pub ratio: f64,
}

impl Rec {
    fn new(item: usize) -> Self {
        Self {
            item,
            ok: false,
            latency: Duration::ZERO,
            wall: Duration::ZERO,
            submit: Duration::ZERO,
            probes: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_hit: false,
            ratio: 0.0,
        }
    }
}

/// Time windows a phase's latencies are kept in.
pub const WINDOWS: usize = 10;
/// Latency samples a window keeps per load-generator thread.
const RESERVOIR: usize = 4096;

/// The answered requests that started in one time window of a phase, with
/// a uniform sample of their latencies. The sample has a fixed size, so a
/// run's memory does not grow with its request rate.
#[derive(Debug, Clone)]
pub struct Window {
    pub answered: u64,
    /// Latencies in ms: all of them up to [`RESERVOIR`], then a uniform
    /// reservoir sample.
    pub sample_ms: Vec<f64>,
    rng: SplitMix64,
}

impl Window {
    fn new(index: usize) -> Self {
        Self {
            answered: 0,
            sample_ms: Vec::new(),
            rng: SplitMix64::seed_from_u64(index as u64),
        }
    }

    fn add(&mut self, ms: f64) {
        self.answered += 1;
        if self.sample_ms.len() < RESERVOIR {
            self.sample_ms.push(ms);
        } else {
            let slot = self.rng.below(self.answered) as usize;
            if slot < RESERVOIR {
                self.sample_ms[slot] = ms;
            }
        }
    }
}

/// One traffic phase. Every request lands in the compact tallies; a traced
/// phase also keeps the full records and the spans.
#[derive(Debug)]
pub struct Phase {
    pub label: &'static str,
    pub traced: bool,
    pub begin: Instant,
    pub elapsed: Duration,
    /// Length of each of the [`WINDOWS`] windows; requests that start
    /// after the last window ends count in the last one.
    pub window_len: Duration,
    pub windows: Vec<Window>,
    /// The open loop's offered rate.
    pub offered_rps: Option<f64>,
    pub sent: usize,
    pub failed: usize,
    /// Output-check violations (a subset of the failed requests).
    pub violations: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// How late the open-loop generator sent each request, in ms.
    pub late_ms: Vec<f64>,
    /// Makespan over lower bound of the first answer for each item.
    pub first_ratio: BTreeMap<usize, f64>,
    /// Every request's record (traced phases only).
    pub recs: Vec<Rec>,
    pub spans: Vec<Span>,
}

impl Phase {
    fn new(label: &'static str, traced: bool, seconds: f64) -> Self {
        Self {
            label,
            traced,
            begin: Instant::now(),
            elapsed: Duration::ZERO,
            window_len: Duration::from_secs_f64(seconds / WINDOWS as f64),
            windows: (0..WINDOWS).map(Window::new).collect(),
            offered_rps: None,
            sent: 0,
            failed: 0,
            violations: 0,
            failures: Vec::new(),
            late_ms: Vec::new(),
            first_ratio: BTreeMap::new(),
            recs: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// An empty phase with the same clock and windows, for one
    /// load-generator thread.
    fn part(&self) -> Self {
        Self {
            begin: self.begin,
            window_len: self.window_len,
            ..Self::new(self.label, self.traced, 0.0)
        }
    }

    /// Tallies a request that started (was sent, or was due) at `start`.
    fn record(&mut self, rec: Rec, start: Instant) {
        self.sent += 1;
        if rec.ok {
            let offset = start.saturating_duration_since(self.begin).as_secs_f64();
            let w = (offset / self.window_len.as_secs_f64().max(1e-9)) as usize;
            self.windows[w.min(WINDOWS - 1)].add(rec.latency.as_secs_f64() * 1e3);
            self.first_ratio.entry(rec.item).or_insert(rec.ratio);
        } else {
            self.failed += 1;
        }
        if self.traced {
            self.recs.push(rec);
        }
    }

    /// Every kept latency sample, in ms.
    pub fn pooled_ms(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.sample_ms.iter().copied())
            .collect()
    }

    fn merge(&mut self, mut other: Phase) {
        self.sent += other.sent;
        self.failed += other.failed;
        self.violations += other.violations;
        self.failures.append(&mut other.failures);
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.answered += theirs.answered;
            mine.sample_ms.extend(theirs.sample_ms);
        }
        self.late_ms.append(&mut other.late_ms);
        for (item, ratio) in other.first_ratio {
            self.first_ratio.entry(item).or_insert(ratio);
        }
        self.recs.append(&mut other.recs);
        self.spans.append(&mut other.spans);
    }

    fn fail(&mut self, message: String) {
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    fn span(&mut self, name: &'static str, tid: u64, request: u64, start: Instant, end: Instant) {
        if self.traced {
            self.spans.push(Span {
                name,
                tid,
                request,
                start,
                end,
            });
        }
    }
}

/// A workload after set-up.
pub trait Workload {
    /// Every generated input, indexed by [`Rec::item`].
    fn items(&self) -> &[Request];
    /// Runs one traffic phase of at least `seconds`.
    fn run(&mut self, label: &'static str, seconds: f64, traced: bool) -> io::Result<Phase>;
    /// Stops every thread and server the workload started.
    fn finish(self: Box<Self>) -> io::Result<()>;
}

/// Sets `name` up for `seed`: generates its inputs, builds the engine or
/// server, and warms it up. `seconds` sizes the open loop's input stream.
pub fn setup(name: &str, seed: u64, seconds: f64) -> io::Result<(Box<dyn Workload>, Phase)> {
    fn boxed<W: Workload + 'static>(
        r: io::Result<(W, Phase)>,
    ) -> io::Result<(Box<dyn Workload>, Phase)> {
        r.map(|(w, warm)| (Box::new(w) as Box<dyn Workload>, warm))
    }
    match name {
        "solve-large" => boxed(SolveLarge::setup(seed)),
        "serve-mixed" => boxed(ServeMixed::setup(seed, seconds)),
        "serve-repeat" => boxed(ServeRepeat::setup(seed)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload `{other}`"),
        )),
    }
}

/// An independent 64-bit seed for input `index` of stream `stream`.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    SplitMix64::seed_from_u64(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.rotate_left(32),
    )
    .next_u64()
}

/// Checks a reply against its request and fills `rec`; failures are
/// reported into `phase`.
fn judge(phase: &mut Phase, rec: &mut Rec, req: &Request, outcome: &WireOutcome) {
    match outcome {
        WireOutcome::Ok {
            makespan,
            certified_target,
            assignment,
            cache_hit,
            stats,
        } => {
            let answer = Answer {
                assignment,
                makespan: *makespan,
                certified_target: *certified_target,
            };
            match check(&req.inst, &answer, req.eps) {
                Ok(ratio) => {
                    rec.ok = true;
                    rec.ratio = ratio;
                }
                Err(e) => {
                    phase.violations += 1;
                    phase.fail(format!("item {}: output check: {e}", rec.item));
                }
            }
            rec.wall = Duration::from_micros(stats.wall_micros);
            rec.probes = stats.bisection_probes;
            rec.cache_hits = stats.cache_hits;
            rec.cache_misses = stats.cache_misses;
            rec.cache_hit = *cache_hit;
        }
        WireOutcome::Cancelled => phase.fail(format!("item {}: cancelled", rec.item)),
        WireOutcome::Error { code, message } => {
            phase.fail(format!("item {}: {code}: {message}", rec.item))
        }
        WireOutcome::Bye { .. } => phase.fail(format!("item {}: unexpected bye", rec.item)),
    }
}

// ---------------------------------------------------------------- solve-large

/// The kernel bench's pinned 2.57 M-cell case: seed 1 of m = 30, n = 90,
/// U(1,100), solved at ε = 0.3.
pub fn pinned_large_instance() -> Instance {
    generate(Family::new(30, 90, Distribution::U1To100), 1)
}

struct SolveLarge {
    engine: Engine,
    items: Vec<Request>,
    next: usize,
}

impl SolveLarge {
    fn setup(seed: u64) -> io::Result<(Self, Phase)> {
        let mut items = vec![Request {
            inst: pinned_large_instance(),
            solver: "par-ptas",
            eps: LARGE_EPS,
        }];
        for i in 0..LARGE_POOL {
            let (m, n) = LARGE_SHAPES[i % LARGE_SHAPES.len()];
            items.push(Request {
                inst: generate(
                    Family::new(m, n, Distribution::U1To100),
                    mix(seed, 1, i as u64),
                ),
                solver: "par-ptas",
                eps: LARGE_EPS,
            });
        }
        // One worker: the single caller never has two solves in flight, and
        // with one worker the big tables always grow the same thread's heap,
        // so the peak RSS repeats.
        let w = Self {
            engine: Engine::with_config(EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            }),
            items,
            next: 0,
        };
        let mut warm = Phase::new("warm-up", false, 1.0);
        for item in 1..=WARMUP {
            w.solve(item, &mut warm);
        }
        warm.elapsed = warm.begin.elapsed();
        Ok((w, warm))
    }

    fn solve(&self, item: usize, phase: &mut Phase) {
        let request = phase.sent as u64;
        let req = &self.items[item];
        let mut params = SolverParams::with_epsilon(req.eps);
        params.threads = Some(LARGE_THREADS);
        let sub = Submission::new(req.inst.clone(), req.solver)
            .with_params(params)
            .without_cache();
        let t0 = Instant::now();
        let handle = self.engine.submit(sub);
        let t1 = Instant::now();
        let result = handle.and_then(|h| h.wait());
        let t2 = Instant::now();
        let mut rec = Rec::new(item);
        rec.latency = t2 - t0;
        rec.submit = t1 - t0;
        match &result {
            Ok(report) => {
                judge(
                    phase,
                    &mut rec,
                    req,
                    &WireResponse::from_result(0, &result).outcome,
                );
                // In process the wall time is exact, not rounded to µs.
                rec.wall = report.stats.wall;
            }
            Err(e) => phase.fail(format!("item {item}: {e}")),
        }
        phase.span("request", 0, request, t0, t2);
        phase.span("engine.submit", 0, request, t0, t1);
        phase.span("engine.wait", 0, request, t1, t2);
        phase.record(rec, t0);
    }
}

impl Workload for SolveLarge {
    fn items(&self) -> &[Request] {
        &self.items
    }

    /// Whole rounds until `seconds` have passed and every instance was
    /// answered at least once.
    fn run(&mut self, label: &'static str, seconds: f64, traced: bool) -> io::Result<Phase> {
        let mut phase = Phase::new(label, traced, seconds);
        let deadline = phase.begin + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline || phase.first_ratio.len() + phase.failed < self.items.len()
        {
            self.solve(0, &mut phase);
            for _ in 0..LARGE_ROUND {
                let item = 1 + self.next % LARGE_POOL;
                self.next += 1;
                self.solve(item, &mut phase);
            }
        }
        phase.elapsed = phase.begin.elapsed();
        Ok(phase)
    }

    fn finish(self: Box<Self>) -> io::Result<()> {
        self.engine.shutdown();
        Ok(())
    }
}

// ------------------------------------------------------------ serve workloads

/// An in-process daemon on an ephemeral loopback port.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<pcmax_engine::EngineTotals>>,
}

impl Daemon {
    fn start() -> io::Result<Self> {
        let server = Server::bind(ServerConfig::default())?;
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Self { addr, thread })
    }

    fn stop(self) -> io::Result<()> {
        Client::connect(self.addr)?.shutdown()?;
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
            .map(|_| ())
    }
}

/// Reads and decodes the next response frame.
fn recv(reader: &mut BufReader<TcpStream>) -> io::Result<WireResponse> {
    let value = read_frame(reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    WireResponse::from_json(&value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A raw `pcmax-wire/1` connection: frames are encoded and decoded here so
/// the codec can be timed apart from the transport.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// One closed-loop request for `items[item]`, tallied into `phase`.
    fn request(
        &mut self,
        items: &[Request],
        item: usize,
        phase: &mut Phase,
        tid: u64,
    ) -> io::Result<()> {
        let id = phase.sent as u64 + 1;
        let wire = items[item].wire(id);
        let t0 = Instant::now();
        let frame = encode_frame(&wire.to_json());
        let t1 = Instant::now();
        self.writer.write_all(&frame)?;
        let response = recv(&mut self.reader)?;
        let t2 = Instant::now();
        if response.id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply id {} for request {id}", response.id),
            ));
        }
        let mut rec = Rec::new(item);
        rec.latency = t2 - t0;
        judge(phase, &mut rec, &items[item], &response.outcome);
        let request = (tid << 40) | id;
        phase.span("request", tid, request, t0, t2);
        phase.span("wire.encode", tid, request, t0, t1);
        phase.span("await.reply", tid, request, t1, t2);
        phase.record(rec, t0);
        Ok(())
    }
}

struct ServeRepeat {
    daemon: Daemon,
    items: Vec<Request>,
    conns: Vec<Conn>,
}

impl ServeRepeat {
    fn setup(seed: u64) -> io::Result<(Self, Phase)> {
        let mut items = Vec::new();
        for (f, family) in paper_families().into_iter().enumerate() {
            for i in 0..REPEAT_PER_FAMILY {
                items.push(Request {
                    inst: generate(family, mix(seed, 2, (f * REPEAT_PER_FAMILY + i) as u64)),
                    solver: "pptas",
                    eps: SERVE_EPS,
                });
            }
        }
        let daemon = Daemon::start()?;
        let mut conns = (0..REPEAT_CLIENTS)
            .map(|_| Conn::connect(daemon.addr))
            .collect::<io::Result<Vec<_>>>()?;
        // One cold lap fills the profile cache.
        let mut warm = Phase::new("warm-up", false, 1.0);
        for item in 0..items.len() {
            conns[0].request(&items, item, &mut warm, 0)?;
        }
        warm.elapsed = warm.begin.elapsed();
        let w = Self {
            daemon,
            items,
            conns,
        };
        Ok((w, warm))
    }
}

impl Workload for ServeRepeat {
    fn items(&self) -> &[Request] {
        &self.items
    }

    fn run(&mut self, label: &'static str, seconds: f64, traced: bool) -> io::Result<Phase> {
        let mut phase = Phase::new(label, traced, seconds);
        let deadline = phase.begin + Duration::from_secs_f64(seconds);
        let items = &self.items;
        let clients = self.conns.len();
        let template = &phase;
        let parts = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    s.spawn(move || -> io::Result<Phase> {
                        let mut part = template.part();
                        // Each connection laps its own half of the pool.
                        let share = items.len().div_ceil(clients);
                        let mut i = 0usize;
                        while Instant::now() < deadline || i < share {
                            conn.request(
                                items,
                                (c + i * clients) % items.len(),
                                &mut part,
                                c as u64,
                            )?;
                            i += 1;
                        }
                        Ok(part)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<io::Result<Vec<Phase>>>()
        })?;
        for part in parts {
            phase.merge(part);
        }
        phase.elapsed = phase.begin.elapsed();
        Ok(phase)
    }

    fn finish(self: Box<Self>) -> io::Result<()> {
        let Self { daemon, conns, .. } = *self;
        drop(conns);
        daemon.stop()
    }
}

struct ServeMixed {
    daemon: Daemon,
    items: Vec<Request>,
    /// Seeded gap before each request's arrival.
    gaps: Vec<Duration>,
    next: usize,
}

impl ServeMixed {
    fn setup(seed: u64, seconds: f64) -> io::Result<(Self, Phase)> {
        let families = paper_families();
        let total = WARMUP + (seconds * MIXED_RATE).ceil() as usize + 1;
        let mut rng = SplitMix64::seed_from_u64(mix(seed, 3, 0));
        let mut items = Vec::with_capacity(total);
        let mut gaps = Vec::with_capacity(total);
        for i in 0..total {
            let family = families[rng.below(families.len() as u64) as usize];
            let inst_seed = rng.next_u64();
            items.push(if i % MIXED_Q_EVERY == MIXED_Q_EVERY - 1 {
                Request {
                    inst: generate_uniform(SpeedFamily::new(family, MIXED_SPEED_MAX), inst_seed),
                    solver: "ptas-q",
                    eps: SERVE_EPS,
                }
            } else {
                Request {
                    inst: generate(family, inst_seed),
                    solver: "pptas",
                    eps: SERVE_EPS,
                }
            });
            // Exponential gaps: Poisson arrivals at the fixed rate.
            let u = 1.0 - rng.next_f64();
            gaps.push(Duration::from_secs_f64(-u.ln() / MIXED_RATE));
        }
        let daemon = Daemon::start()?;
        let mut warm = Phase::new("warm-up", false, 1.0);
        let mut conn = Conn::connect(daemon.addr)?;
        for item in 0..WARMUP {
            conn.request(&items, item, &mut warm, 0)?;
        }
        warm.elapsed = warm.begin.elapsed();
        let w = Self {
            daemon,
            items,
            gaps,
            next: WARMUP,
        };
        Ok((w, warm))
    }
}

impl Workload for ServeMixed {
    fn items(&self) -> &[Request] {
        &self.items
    }

    /// Sends the next `seconds` worth of the arrival schedule over one
    /// connection: this thread sends each request at its due time, a second
    /// one reads the replies.
    fn run(&mut self, label: &'static str, seconds: f64, traced: bool) -> io::Result<Phase> {
        let first = self.next;
        let n = ((seconds * MIXED_RATE).round() as usize).min(self.items.len() - first);
        self.next += n;
        let mut offsets = Vec::with_capacity(n);
        let mut at = Duration::from_millis(2);
        for gap in &self.gaps[first..first + n] {
            at += *gap;
            offsets.push(at);
        }
        let stream = TcpStream::connect(self.daemon.addr)?;
        let mut writer = stream.try_clone()?;
        let reader = BufReader::new(stream);
        let items = &self.items;
        let offsets = &offsets;
        let mut phase = Phase::new(label, traced, seconds);
        phase.offered_rps = offsets
            .last()
            .map(|last| n as f64 / (*last - offsets[0]).as_secs_f64());
        let begin = phase.begin;
        let template = &phase;

        let (sent, received) = std::thread::scope(|s| {
            let receiver = s.spawn(move || -> io::Result<Phase> {
                let mut reader = reader;
                let mut part = template.part();
                for _ in 0..n {
                    let response = recv(&mut reader)?;
                    let done = Instant::now();
                    let k = response
                        .id
                        .checked_sub(1)
                        .map(|k| k as usize)
                        .filter(|&k| k < n)
                        .ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "stray reply id")
                        })?;
                    let due = begin + offsets[k];
                    let mut rec = Rec::new(first + k);
                    rec.latency = done.saturating_duration_since(due);
                    judge(&mut part, &mut rec, &items[first + k], &response.outcome);
                    part.span("request", 1, response.id, due, done);
                    part.record(rec, due);
                }
                Ok(part)
            });

            let mut late = Vec::with_capacity(n);
            let mut encode = Vec::new();
            let mut send_error = None;
            for (k, offset) in offsets.iter().enumerate() {
                let due = begin + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t0 = Instant::now();
                let frame = encode_frame(&items[first + k].wire(k as u64 + 1).to_json());
                let t1 = Instant::now();
                if let Err(e) = writer.write_all(&frame) {
                    // Unblock the receiver before reporting.
                    let _ = writer.shutdown(Shutdown::Both);
                    send_error = Some(e);
                    break;
                }
                late.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
                if traced {
                    encode.push((k as u64 + 1, t0, t1));
                }
            }
            let received = receiver
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            match send_error {
                Some(e) => (Err(e), received),
                None => (Ok((late, encode)), received),
            }
        });
        let (late, encode) = sent?;
        phase.merge(received?);
        phase.late_ms = late;
        for (request, t0, t1) in encode {
            phase.span("wire.encode", 0, request, t0, t1);
        }
        phase.elapsed = phase.begin.elapsed();
        Ok(phase)
    }

    fn finish(self: Box<Self>) -> io::Result<()> {
        self.daemon.stop()
    }
}

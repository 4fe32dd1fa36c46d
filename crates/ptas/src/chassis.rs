//! The scenario seam of the chassis: the search of Algorithm 1 generalized
//! over *what* is being searched.
//!
//! A [`Scenario`] packages the scheduling-model-specific parts of a
//! dual-approximation run: rounding the instance at a target (Lines 6–24),
//! the DP on the rounded problem, and the `reconstruct` step that turns the
//! DP's witness configs back into a schedule over the original jobs.
//! `probe` is the one feasibility probe: it rounds once, keys the
//! request's profile cache on that rounding, and takes the [`DpOutcome`]
//! from the cache or from the scenario's DP. [`search`] is the one search
//! loop, model-agnostic: the [`MakespanBounds`] bracket, the
//! budget/cancellation gates, the trace spans, the re-probe that certifies
//! the final target, the probe log and the stats bookkeeping. It probes
//! every candidate on the caller, in the calling thread's DP arena. [`drive`]
//! is `search` with one candidate per round; `pcmax_parallel`'s
//! `SpeculativePtas` is `search` with `w` candidates per round.

use crate::config::Config;
use crate::dp::DpProblem;
use crate::driver::{BisectionLog, BisectionProbe, PtasOutput};
use crate::params::EpsilonParams;
use crate::table::DpScratch;
use pcmax_core::{
    profile, DpOutcome, Error, Instance, MakespanBounds, ProfileCache, ProfileKey, Result,
    Schedule, SolveReport, SolveRequest, SolveStats, Time,
};
use pcmax_metrics::Counter;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Bisection probes across all dual-approximation solves.
static BISECTION_PROBES: Counter = Counter::new(
    "pcmax_bisection_probes_total",
    "Feasibility probes evaluated by the bisection chassis",
);

/// DP levels swept across all solves (aggregate of `dp_levels_swept`).
static DP_LEVELS: Counter = Counter::new(
    "pcmax_dp_levels_total",
    "Wavefront DP levels swept across all solves",
);

/// DP cells computed across all solves (aggregate of `dp_cells`).
static DP_CELLS: Counter = Counter::new(
    "pcmax_dp_cells_total",
    "DP cells computed across all solves",
);

/// Kernel scratch allocations across all solves.
static DP_KERNEL_ALLOCS: Counter = Counter::new(
    "pcmax_dp_kernel_allocs_total",
    "Kernel scratch buffer allocations across all solves",
);

/// Probes answered from the instance-profile cache across all solves.
static PROFILE_CACHE_HITS: Counter = Counter::new(
    "pcmax_profile_cache_hits_total",
    "DP probes answered from the instance-profile cache",
);

/// Probes that consulted the instance-profile cache and missed.
static PROFILE_CACHE_MISSES: Counter = Counter::new(
    "pcmax_profile_cache_misses_total",
    "DP probes that consulted the instance-profile cache and missed",
);

/// A dual-approximation scheduling scenario the generic [`search`] loop can
/// bisect: `P||Cmax` (the original PTAS), `Q||Cmax` (uniform machines), or
/// anything else with a monotone feasibility predicate over target makespans
/// whose probe at the speed-aware [`MakespanBounds`] upper end is feasible.
pub trait Scenario {
    /// The [`ProfileKey::scenario`] tag of this scenario's probes.
    const TAG: &'static str;

    /// What [`reconstruct`](Self::reconstruct) needs besides the witness
    /// configs to rebuild a schedule over the original jobs.
    type Map;

    /// The `ε`/`k` parameterization; its ε joins the profile key.
    fn params(&self) -> &EpsilonParams;

    /// Rounds `inst` at `target`: the DP problem, the machine capacities
    /// its configurations are checked against, and the reconstruction map.
    /// `None` when some job fits no machine by `target`, which makes the
    /// target infeasible outright.
    fn round(&self, inst: &Instance, target: Time) -> Option<Rounded<Self::Map>>;

    /// Runs the DP on a rounded problem: `OPT(N)` and, when it fits the
    /// machine budget, the extracted per-machine configs.
    fn dp(&self, rounded: &Rounded<Self::Map>, scratch: &mut DpScratch) -> Result<DpOutcome>;

    /// Rebuilds a full schedule from the configs of a feasible probe and
    /// its rounding's map (long jobs from the configs, short jobs greedily
    /// on top).
    fn reconstruct(&self, inst: &Instance, configs: &[Config], map: &Self::Map)
        -> Result<Schedule>;
}

/// One rounding of an instance at a target, as [`Scenario::round`] returns
/// it.
#[derive(Debug)]
pub struct Rounded<M> {
    /// The rounded DP subproblem.
    pub problem: DpProblem,
    /// Machine capacities the configurations are checked against: the
    /// target alone for identical machines, the fastest-first work
    /// capacities for uniform machines.
    pub caps: Vec<Time>,
    /// The scenario's reconstruction map.
    pub map: M,
}

/// A feasible probe's witness: the DP's per-machine configs and the map of
/// the rounding they came from.
type Witness<M> = (Vec<Config>, M);

/// One candidate of a [`search`] round: its target and, once probed,
/// `OPT(N)` (`u32::MAX` when unschedulable) and the witness iff feasible.
type Candidate<M> = (Time, u32, Option<Witness<M>>);

/// A [`Scenario`]'s `Solver::solve`: [`drive`] the request, then [`report`]
/// the result.
pub fn solve<Sc: Scenario>(sc: &Sc, req: &SolveRequest<'_>) -> Result<SolveReport> {
    let (out, stats) = drive(sc, req)?;
    Ok(report(req.instance, out.schedule, out.target, stats))
}

/// The engine report of every dual-approximation solve: the schedule, its
/// makespan and the certified target `T*`, never claimed optimal.
pub fn report(inst: &Instance, schedule: Schedule, target: Time, stats: SolveStats) -> SolveReport {
    SolveReport {
        makespan: schedule.makespan(inst),
        schedule,
        certified_target: Some(target),
        proven_optimal: false,
        stats,
    }
}

/// Runs a full dual-approximation solve for any [`Scenario`] under an engine
/// request: [`search`] with one candidate per round, the bisection of
/// Algorithm 1. Returns the schedule, the certified target `T*`, the probe
/// log, and per-phase stats.
pub fn drive<Sc: Scenario>(sc: &Sc, req: &SolveRequest<'_>) -> Result<(PtasOutput, SolveStats)> {
    search(sc, req, 1)
}

/// Most entries of a table whose buffers a thread keeps between [`search`]
/// solves: above every table the benchmark's workloads build (the largest,
/// the pinned case, has 2.57 M entries), and about 8 MB of `u16` values,
/// where a `DEFAULT_MAX_ENTRIES` table would pin about 134 MB.
const KEPT_ENTRIES: usize = 1 << 22;

thread_local! {
    /// The DP arena [`search`] keeps on each thread between solves.
    static ARENA: Cell<DpScratch> = Cell::new(DpScratch::new());
}

/// The search loop of every dual-approximation solve: Algorithm 1's
/// bisection over the [`MakespanBounds`] bracket, generalized to `width`
/// candidates per round, after a first round that probes the bracket's
/// lower end alone.
///
/// Every candidate is probed on the caller, in ascending order within its
/// round, through the request's profile cache and the calling thread's DP
/// arena. The budget and cancellation gate runs before every round. The
/// upper end drops to the smallest feasible candidate, and the lower end
/// rises past the largest infeasible candidate below the new upper end: both
/// rest on one-sided proofs (a feasible probe yields a schedule; an
/// infeasible probe at `t` proves `OPT > t`, since rounded sizes never
/// exceed the originals), so any width certifies the same `(1+ε)`
/// guarantee. When no round found the final target feasible it is
/// re-probed, then the gate runs once more before reconstruction.
///
/// The arena stays on its thread between solves, so a worker allocates its
/// table once: the `LB` probe builds the largest table of the bracket
/// (table size grows as the target shrinks), and every later probe and
/// solve reuses it. It goes back with its counters zeroed and without any
/// buffer above `KEPT_ENTRIES` entries, whether the solve returned `Ok` or
/// `Err`; a solve that panics drops it.
pub fn search<Sc: Scenario>(
    sc: &Sc,
    req: &SolveRequest<'_>,
    width: usize,
) -> Result<(PtasOutput, SolveStats)> {
    let mut scratch = ARENA.take();
    let result = search_in(sc, req, width, &mut scratch);
    ARENA.set(scratch.kept(KEPT_ENTRIES));
    result
}

/// [`search`] in `scratch`, whose counters must start at zero: the solve's
/// stats report them.
fn search_in<Sc: Scenario>(
    sc: &Sc,
    req: &SolveRequest<'_>,
    width: usize,
    scratch: &mut DpScratch,
) -> Result<(PtasOutput, SolveStats)> {
    let inst = req.instance;
    let run_start = Instant::now();
    let mut stats = SolveStats::default();
    req.check_cancelled()?;
    if inst.jobs() == 0 {
        stats.wall = run_start.elapsed();
        return Ok((
            PtasOutput {
                schedule: Schedule::from_assignment(vec![], inst.machines())?,
                target: 0,
                log: BisectionLog::default(),
            },
            stats,
        ));
    }
    let MakespanBounds {
        mut lower,
        mut upper,
    } = MakespanBounds::of(inst);
    let mut log = BisectionLog::default();
    let mut cache = req.cache.as_deref().map(SolveCache::new);
    // Wall time spent inside probes only, reported as the `"dp"` phase that
    // `dp_phase_cells_per_sec` divides by.
    let mut dp_wall = Duration::ZERO;
    // Each round first polls the request's budget gate; `[lower, upper]`
    // is the current bracket, reported in a budget-exhausted error as the
    // best-known bounds.
    let mut round = |candidates: &mut [Candidate<Sc::Map>], lower: Time, upper: Time| {
        req.check_budget(Some(upper), lower)?;
        let dp_start = Instant::now();
        for (t, dp_machines, witness) in candidates.iter_mut() {
            let _probe_span = req.trace_span("probe", *t);
            (*dp_machines, *witness) = probe(sc, inst, *t, scratch, cache.as_mut())?;
        }
        dp_wall += dp_start.elapsed();
        log.probes.extend(
            candidates
                .iter()
                .map(|(target, dp_machines, witness)| BisectionProbe {
                    target: *target,
                    dp_machines: *dp_machines,
                    feasible: witness.is_some(),
                }),
        );
        Ok::<_, Error>(())
    };

    let bisect_start = Instant::now();
    let bisect_span = req.trace_span("bisection", 0);
    // The smallest feasible candidate so far, with its witness; its target
    // is always `upper`.
    let mut best: Option<(Witness<Sc::Map>, Time)> = None;
    let mut rounds = 0;
    // One buffer for every round, so a round allocates nothing.
    let mut candidates = Vec::new();
    while lower < upper {
        // The first round probes Equation (1)'s lower bound alone, a
        // deviation from Algorithm 1: on most inputs `LB` is feasible, and
        // then it is the certified target, since no target below `LB` can
        // be (`LB ≤ OPT`). An infeasible `LB` raises the lower end past it,
        // as any infeasible candidate does, and the bisection goes on.
        if rounds == 0 {
            candidates.push((lower, u32::MAX, None));
        } else {
            fill_candidates(lower, upper, width, &mut candidates);
        }
        rounds += 1;
        round(&mut candidates, lower, upper)?;
        for (t, _, witness) in candidates.drain(..) {
            // Candidates ascend: the first feasible one is the smallest, and
            // the infeasible ones before it lie below the new upper end.
            match witness {
                Some(w) if t < upper => {
                    upper = t;
                    best = Some((w, t));
                }
                None if t < upper => lower = t + 1,
                _ => {}
            }
        }
    }
    // A zero-width bracket, or no feasible candidate: certify the final
    // target directly — the initial upper end is always feasible, so this
    // succeeds.
    let ((configs, map), target) = match best {
        Some(best) => best,
        None => {
            let mut last = [(upper, u32::MAX, None)];
            round(&mut last, lower, upper)?;
            let [(_, _, witness)] = last;
            let witness = witness.ok_or_else(|| Error::InvalidWitness {
                reason: format!(
                    "converged target {upper} probed infeasible, breaking the \
                     bisection invariant"
                ),
            })?;
            (witness, upper)
        }
    };
    log.rounds = rounds;
    drop(bisect_span);
    stats.push_phase("bisection", bisect_start.elapsed());
    stats.push_phase("dp", dp_wall);

    // Reconstruction runs under the same budget/cancel regime as the
    // probes. This matters most on the cache path: a solve whose every
    // probe was a hit reaches this point having spent almost no budget,
    // and a cancel raised during the search must still abort the
    // (per-instance, never cached) witness reconstruction.
    req.check_budget(Some(target), target)?;
    let recon_start = Instant::now();
    let recon_span = req.trace_span("reconstruct", 0);
    let schedule = sc.reconstruct(inst, &configs, &map)?;
    drop(recon_span);
    stats.push_phase("reconstruct", recon_start.elapsed());

    stats.bisection_probes = log.evaluations() as u64;
    if let Some(cache) = cache {
        stats.cache_hits = cache.hits;
        stats.cache_misses = cache.misses;
    }
    merge_scratch(&mut stats, scratch);
    stats.wall = run_start.elapsed();
    record_totals(&stats);
    Ok((
        PtasOutput {
            schedule,
            target,
            log,
        },
        stats,
    ))
}

/// Fills `candidates` with one round's targets, ascending and distinct,
/// not yet probed: `width` evenly spaced targets plus the midpoint, which
/// for `width = 1` is the midpoint alone. Each lies in `[lower, upper)`.
fn fill_candidates<M>(lower: Time, upper: Time, width: usize, candidates: &mut Vec<Candidate<M>>) {
    candidates.clear();
    // The offsets are computed in u128: `span * i` can exceed u64::MAX.
    let span = u128::from(upper - lower);
    let parts = width as u128 + 1;
    // audit:allow(cast): span * i / parts < span, which is a u64.
    let spaced = (1..parts).map(|i| lower + (span * i / parts) as Time);
    // `lower + upper` can exceed u64::MAX; this midpoint cannot.
    let midpoint = lower + (upper - lower) / 2;
    candidates.extend(spaced.chain([midpoint]).map(|t| (t, u32::MAX, None)));
    candidates.sort_unstable_by_key(|c| c.0);
    candidates.dedup_by_key(|c| c.0);
}

/// One solve's use of the request's instance-profile cache: the hits and
/// misses of this solve alone, and the keys it stored itself. A key this
/// solve stored bypasses the cache: reading back our own outcome would
/// report a cross-request hit on a cold cache (same work as an uncached
/// probe). [`search`] makes one per cached solve.
struct SolveCache<'a> {
    cache: &'a dyn ProfileCache,
    self_stored: Vec<ProfileKey>,
    hits: u64,
    misses: u64,
}

impl<'a> SolveCache<'a> {
    fn new(cache: &'a dyn ProfileCache) -> Self {
        Self {
            cache,
            self_stored: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The outcome cached under `key`, or `dp()`'s, which is then stored.
    fn outcome(
        &mut self,
        key: ProfileKey,
        dp: impl FnOnce() -> Result<DpOutcome>,
    ) -> Result<DpOutcome> {
        if self.self_stored.contains(&key) {
            return dp();
        }
        if let Some(hit) = self.cache.get(&key) {
            self.hits += 1;
            return Ok(hit);
        }
        self.misses += 1;
        let outcome = dp()?;
        self.self_stored.push(key.clone());
        self.cache.put(key, outcome.clone());
        Ok(outcome)
    }
}

/// One feasibility probe at `target`: rounds the instance once and, when a
/// `cache` is given, keys it on that rounding — a hit skips the DP, a miss
/// runs it and stores the outcome. Returns `OPT(N)` (machine count,
/// `u32::MAX` when unschedulable) together with the witness iff the target
/// is feasible.
fn probe<Sc: Scenario>(
    sc: &Sc,
    inst: &Instance,
    target: Time,
    scratch: &mut DpScratch,
    cache: Option<&mut SolveCache<'_>>,
) -> Result<(u32, Option<Witness<Sc::Map>>)> {
    let Some(rounded) = sc.round(inst, target) else {
        return Ok((u32::MAX, None));
    };
    let outcome = match cache {
        Some(cache) => cache.outcome(profile_key(sc, &rounded), || sc.dp(&rounded, scratch))?,
        None => sc.dp(&rounded, scratch)?,
    };
    Ok((
        outcome.machines,
        outcome.schedule.map(|configs| (configs, rounded.map)),
    ))
}

/// The profile key of one rounding: its class counts and its capacities in
/// rounding units. Every config load the DP checks is a multiple of the
/// unit, so these determine the DP outcome exactly (see
/// `pcmax_core::profile`); ε and `m` ride along.
fn profile_key<Sc: Scenario>(sc: &Sc, rounded: &Rounded<Sc::Map>) -> ProfileKey {
    let problem = &rounded.problem;
    ProfileKey {
        scenario: Sc::TAG,
        eps_micros: profile::eps_micros(sc.params().epsilon),
        // Saturating is sound: OPT(N) is a u16, so every m ≥ u32::MAX
        // gives the same outcome.
        machines: u32::try_from(problem.max_machines).unwrap_or(u32::MAX),
        caps_units: rounded.caps.iter().map(|&c| c / problem.unit).collect(),
        counts: problem.counts.clone(),
    }
}

/// Adds the DP counters `scratch` accumulated (tables, entries, levels,
/// cells, pool parks and wakes, kernel allocations) to `stats`.
fn merge_scratch(stats: &mut SolveStats, scratch: &DpScratch) {
    stats.dp_entries_touched += scratch.entries_touched;
    stats.dp_tables_allocated += scratch.tables_allocated;
    stats.dp_tables_reused += scratch.tables_reused;
    stats.dp_levels_swept += scratch.levels_swept;
    stats.dp_cells += scratch.cells_computed;
    stats.pool_parks += scratch.pool_parks;
    stats.pool_wakes += scratch.pool_wakes;
    stats.dp_kernel_allocs += scratch.kernel_allocs;
}

/// Aggregates one finished solve's totals into the process-wide registry —
/// once per solve, well off the probe/cell hot paths.
fn record_totals(stats: &SolveStats) {
    BISECTION_PROBES.inc_by(stats.bisection_probes);
    DP_LEVELS.inc_by(stats.dp_levels_swept);
    DP_CELLS.inc_by(stats.dp_cells);
    DP_KERNEL_ALLOCS.inc_by(stats.dp_kernel_allocs);
    PROFILE_CACHE_HITS.inc_by(stats.cache_hits);
    PROFILE_CACHE_MISSES.inc_by(stats.cache_misses);
}

//! The scenario seam of the chassis: the bisection driver (Algorithm 1)
//! generalized over *what* is being bisected.
//!
//! A [`Scenario`] packages the scheduling-model-specific parts of a
//! dual-approximation run: a feasibility `probe` at a target (rounding, DP
//! and witness extraction), the `reconstruct` step that turns a probe's
//! witness back into a schedule over the original jobs, and the
//! profile-cache hooks. [`drive`] is the model-agnostic part — the
//! bisection loop over the [`MakespanBounds`] bracket, the
//! budget/cancellation gates, the trace spans, the re-probe that
//! re-establishes the invariant at the converged target, and the stats
//! bookkeeping. [`report`], [`check_budget`], [`merge_scratch`] and
//! [`record_totals`] are also what `pcmax_parallel::SpeculativePtas` runs
//! its own w-ary search on.

use crate::config::Config;
use crate::driver::{BisectionLog, BisectionProbe, PtasOutput};
use crate::table::DpScratch;
use pcmax_core::{
    Error, Instance, MakespanBounds, ProfileKey, ProfileVerdict, Result, Schedule, SolveReport,
    SolveRequest, SolveStats, Time,
};
use pcmax_metrics::Counter;
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

/// A dual-approximation scheduling scenario the generic [`drive`] loop can
/// bisect: `P||Cmax` (the original PTAS), `Q||Cmax` (uniform machines), or
/// anything else with a monotone feasibility predicate over target makespans
/// whose probe at the speed-aware [`MakespanBounds`] upper end is feasible.
pub trait Scenario {
    /// Whatever the probe must hand to [`reconstruct`](Self::reconstruct)
    /// to rebuild a schedule over the original jobs.
    type Witness;

    /// DP-table entry count at `target`, used to pre-size the scratch arena
    /// so every probe of the run reuses one allocation. `None` skips the
    /// reservation (probes then allocate on first use).
    fn reserve_hint(&self, inst: &Instance, target: Time) -> Option<usize>;

    /// Probes feasibility at `target`: rounds the instance, runs the DP, and
    /// returns `OPT(N)` (machine count, `u32::MAX` for unschedulable)
    /// together with a witness iff the target is feasible.
    fn probe(
        &self,
        inst: &Instance,
        target: Time,
        scratch: &mut DpScratch,
    ) -> Result<(u32, Option<Self::Witness>)>;

    /// Rebuilds a full schedule from the witness of a feasible probe at
    /// `target` (long jobs from the witness, short jobs greedily on top).
    fn reconstruct(
        &self,
        inst: &Instance,
        witness: Self::Witness,
        target: Time,
    ) -> Result<Schedule>;

    /// The instance-profile cache key of the rounded subproblem at
    /// `target`, or `None` when this particular probe does not support
    /// profile caching. Implementations must guarantee that equal keys
    /// imply bit-identical probe verdicts *and* extracted witness configs —
    /// see `pcmax_core::profile` for the soundness argument.
    fn profile_key(&self, inst: &Instance, target: Time) -> Option<ProfileKey>;

    /// Rebuilds a probe witness from cached configs: replays the cheap
    /// O(n) rounding for the per-instance reconstruction map and skips the
    /// DP. Returning `None` forces a real probe.
    fn rehydrate(&self, inst: &Instance, target: Time, configs: &[Config])
        -> Option<Self::Witness>;

    /// The extracted per-machine configs inside a witness, for populating
    /// the cache after a miss.
    fn witness_configs<'w>(&self, witness: &'w Self::Witness) -> &'w [Config];
}

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
/// request: bisect the bracket, probing feasibility with budget and
/// cancellation gates before every probe, then reconstruct from the witness
/// at the converged target. Returns the schedule, the certified target `T*`,
/// the probe log, and per-phase stats.
pub fn drive<Sc: Scenario>(sc: &Sc, req: &SolveRequest<'_>) -> Result<(PtasOutput, SolveStats)> {
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
    // Last feasible witness and the target it certifies.
    let mut best: Option<(Sc::Witness, Time)> = None;

    // One arena for the whole run. Reserving the largest table of the
    // bracket (table size grows as the target shrinks, and no probe goes
    // below the initial lower bound) makes every probe a reuse.
    let mut scratch = DpScratch::new();
    if let Some(entries) = sc.reserve_hint(inst, lower.max(1)) {
        scratch.reserve(entries);
    }
    // Keys this solve stored itself: the converged-target re-probe may
    // revisit a target the bisection loop already probed, and reading back
    // our own verdict would report a cross-request `cache_hit` on a cold
    // cache. Self-stored keys bypass the cache instead (same work as an
    // uncached solve).
    let mut self_stored: Vec<ProfileKey> = Vec::new();

    let bisect_start = Instant::now();
    let bisect_span = req.trace_span("bisection", 0);
    // Wall time spent inside probes only, reported as the `"dp"` phase:
    // `dp_cells_per_sec` divides by the *total* solve wall and so
    // understates DP throughput; `dp_phase_cells_per_sec` divides by this.
    let mut dp_wall = Duration::ZERO;
    while lower < upper {
        check_budget(req, scratch.entries_touched, lower, upper)?;
        let t = (lower + upper) / 2;
        let probe_span = req.trace_span("probe", t);
        let dp_start = Instant::now();
        let (dp_machines, witness) =
            probe_cached(sc, req, inst, t, &mut scratch, &mut stats, &mut self_stored)?;
        dp_wall += dp_start.elapsed();
        drop(probe_span);
        log.probes.push(BisectionProbe {
            target: t,
            dp_machines,
            feasible: witness.is_some(),
        });
        match witness {
            Some(w) => {
                upper = t;
                best = Some((w, t));
            }
            None => lower = t + 1,
        }
    }

    let target = upper;
    // The loop's invariant keeps `best` at T = final upper whenever the
    // loop body ran and found a feasible probe; otherwise (zero-width
    // bracket, or all probes infeasible) certify the final target
    // directly — the initial UB is always feasible, so this succeeds.
    let (witness, t_star) = match best {
        Some(b) if b.1 == target => b,
        _ => {
            check_budget(req, scratch.entries_touched, lower, upper)?;
            let probe_span = req.trace_span("probe", target);
            let dp_start = Instant::now();
            let (dp_machines, witness) = probe_cached(
                sc,
                req,
                inst,
                target,
                &mut scratch,
                &mut stats,
                &mut self_stored,
            )?;
            dp_wall += dp_start.elapsed();
            drop(probe_span);
            log.probes.push(BisectionProbe {
                target,
                dp_machines,
                feasible: witness.is_some(),
            });
            let witness = witness.ok_or_else(|| Error::InvalidWitness {
                reason: format!(
                    "converged target {target} probed infeasible, breaking the \
                     bisection invariant"
                ),
            })?;
            (witness, target)
        }
    };
    drop(bisect_span);
    stats.push_phase("bisection", bisect_start.elapsed());
    stats.push_phase("dp", dp_wall);

    // Reconstruction runs under the same budget/cancel regime as the
    // probes. This matters most on the cache path: a solve whose every
    // probe was a hit reaches this point having spent almost no budget,
    // and a cancel raised during the bisection must still abort the
    // (per-instance, never cached) witness reconstruction.
    check_budget(req, scratch.entries_touched, t_star, t_star)?;
    let recon_start = Instant::now();
    let recon_span = req.trace_span("reconstruct", 0);
    let schedule = sc.reconstruct(inst, witness, t_star)?;
    drop(recon_span);
    stats.push_phase("reconstruct", recon_start.elapsed());

    stats.bisection_probes = log.evaluations() as u64;
    merge_scratch(&mut stats, &scratch);
    stats.wall = run_start.elapsed();
    record_totals(&stats);
    Ok((
        PtasOutput {
            schedule,
            target: t_star,
            log,
        },
        stats,
    ))
}

/// One feasibility probe, routed through the request's instance-profile
/// cache when both the request carries one and the scenario exposes a
/// [`profile_key`](Scenario::profile_key) for this target. A hit skips the
/// DP and [rehydrates](Scenario::rehydrate) the witness from the cached
/// configs (replaying only the O(n) rounding); a miss runs the real probe
/// and stores its verdict. Hits/misses are counted into `stats` *for this
/// solve* — a hit never reuses the populating solve's stats, and a key in
/// `self_stored` (written by this very solve) bypasses the cache so a cold
/// request never reports a hit against itself.
#[allow(clippy::too_many_arguments)]
fn probe_cached<Sc: Scenario>(
    sc: &Sc,
    req: &SolveRequest<'_>,
    inst: &Instance,
    target: Time,
    scratch: &mut DpScratch,
    stats: &mut SolveStats,
    self_stored: &mut Vec<ProfileKey>,
) -> Result<(u32, Option<Sc::Witness>)> {
    let keyed = match &req.cache {
        Some(cache) => sc
            .profile_key(inst, target)
            .filter(|key| !self_stored.contains(key))
            .map(|key| (cache, key)),
        None => None,
    };
    if let Some((cache, key)) = &keyed {
        if let Some(verdict) = cache.get(key) {
            let rehydrated = match verdict {
                ProfileVerdict::Infeasible { machines } => Some((machines, None)),
                ProfileVerdict::Feasible { machines, configs } => sc
                    .rehydrate(inst, target, &configs)
                    .map(|w| (machines, Some(w))),
            };
            // A verdict the scenario cannot rehydrate (shouldn't happen
            // with a sound key) falls through to a real probe.
            if let Some(hit) = rehydrated {
                stats.cache_hits += 1;
                return Ok(hit);
            }
        }
        stats.cache_misses += 1;
    }
    let (machines, witness) = sc.probe(inst, target, scratch)?;
    if let Some((cache, key)) = keyed {
        let verdict = match &witness {
            None => ProfileVerdict::Infeasible { machines },
            Some(w) => ProfileVerdict::Feasible {
                machines,
                configs: sc.witness_configs(w).to_vec(),
            },
        };
        self_stored.push(key.clone());
        cache.put(key, verdict);
    }
    Ok((machines, witness))
}

/// Adds the DP counters `scratch` accumulated (tables, entries, levels,
/// cells, pool parks and wakes, kernel allocations) to `stats`.
pub fn merge_scratch(stats: &mut SolveStats, scratch: &DpScratch) {
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
pub fn record_totals(stats: &SolveStats) {
    BISECTION_PROBES.inc_by(stats.bisection_probes);
    DP_LEVELS.inc_by(stats.dp_levels_swept);
    DP_CELLS.inc_by(stats.dp_cells);
    DP_KERNEL_ALLOCS.inc_by(stats.dp_kernel_allocs);
    PROFILE_CACHE_HITS.inc_by(stats.cache_hits);
    PROFILE_CACHE_MISSES.inc_by(stats.cache_misses);
}

/// Pre-probe budget gate: cancellation, wall-clock deadline and the
/// DP-entry limit against the `entries_touched` so far. `[lower, upper]` is
/// the current bracket, reported in the budget-exhausted error as the
/// best-known bounds.
pub fn check_budget(
    req: &SolveRequest<'_>,
    entries_touched: u64,
    lower: Time,
    upper: Time,
) -> Result<()> {
    req.check_cancelled()?;
    let entries_exhausted = req
        .budget
        .entry_limit
        .is_some_and(|limit| entries_touched >= limit as u64);
    if req.budget.deadline_exceeded() || entries_exhausted {
        return Err(Error::BudgetExhausted {
            incumbent: upper,
            lower_bound: lower,
        });
    }
    Ok(())
}

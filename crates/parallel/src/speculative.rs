//! Speculative parallel bisection — an *extension* beyond the paper.
//!
//! The paper parallelizes the DP inside each bisection probe and keeps the
//! bisection itself sequential. When the DP tables are small (short jobs,
//! few classes), per-level parallelism is starved; a complementary source of
//! parallelism is to probe **several candidate targets concurrently** each
//! round (`w`-ary search instead of binary). Soundness is unchanged because
//! the bracket updates rest on the same one-sided proofs as binary search:
//!
//! * an infeasible probe at `t` proves `OPT > t` (rounded sizes never exceed
//!   originals), so the lower end can jump past the largest infeasible
//!   candidate below the new upper end;
//! * a feasible probe at `t` yields a witness schedule, so the upper end can
//!   drop to the smallest feasible candidate.
//!
//! The converged target may differ from plain bisection's by the usual
//! rounding non-monotonicity of the dual-approximation framework, but it
//! carries the identical `(1+ε)` guarantee. With `width = 1` this *is*
//! binary search.

use crate::persistent;
use crate::wavefront::ParallelDp;
use pcmax_core::{
    Error, Instance, MakespanBounds, Result, Schedule, SolveReport, SolveRequest, SolveStats,
    Solver, Time,
};
use pcmax_ptas::chassis::{self, Scenario};
use pcmax_ptas::table::DpScratch;
use pcmax_ptas::{EpsilonParams, Ptas};
use std::time::{Duration, Instant};

/// The speculative-bisection parallel PTAS.
#[derive(Debug, Clone)]
pub struct SpeculativePtas {
    params: EpsilonParams,
    /// Candidate targets probed concurrently per round (`≥ 1`).
    pub width: usize,
}

/// A feasible probe's witness, as the `P||Cmax` scenario reconstructs it.
type Witness = <Ptas<ParallelDp> as Scenario>::Witness;

/// One pool worker's probe: its target, private scratch arena and verdict.
type Probe = (Time, DpScratch, Result<Option<Witness>>);

impl SpeculativePtas {
    /// Speculative PTAS probing `width` targets per round.
    pub fn new(epsilon: f64, width: usize) -> Result<Self> {
        Ok(Self {
            params: EpsilonParams::new(epsilon)?,
            width: width.max(1),
        })
    }

    /// Number of probe rounds a full run needs (for tests/telemetry).
    pub fn rounds_bound(&self, inst: &Instance) -> u32 {
        let b = MakespanBounds::of(inst);
        // w-ary search: each round divides the bracket by (width + 1).
        let mut width = b.width() + 1;
        let mut rounds = 0;
        while width > 1 {
            width = width.div_ceil(self.width as Time + 1);
            rounds += 1;
        }
        rounds
    }

    /// Full solve, returning the schedule, the certified target and the
    /// number of probe rounds executed.
    pub fn solve_detailed(&self, inst: &Instance) -> Result<(Schedule, Time, u32)> {
        self.run(&SolveRequest::new(inst))
            .map(|(schedule, target, rounds, _)| (schedule, target, rounds))
    }

    /// Full solve under an engine request: cancellation and budget are
    /// checked between probe rounds; the returned stats account every
    /// concurrent probe of every round.
    pub fn run(&self, req: &SolveRequest<'_>) -> Result<(Schedule, Time, u32, SolveStats)> {
        let inst = req.instance;
        let run_start = Instant::now();
        let mut stats = SolveStats::default();
        req.check_cancelled()?;
        if inst.jobs() == 0 {
            stats.wall = run_start.elapsed();
            let schedule = Schedule::from_assignment(vec![], inst.machines())?;
            return Ok((schedule, 0, 0, stats));
        }
        let ptas = Ptas::with_solver(
            self.params.epsilon,
            ParallelDp {
                threads: req.threads,
            },
        )?;
        let MakespanBounds {
            mut lower,
            mut upper,
        } = MakespanBounds::of(inst);
        // Last feasible witness and the target it certifies.
        let mut best: Option<(Witness, Time)> = None;
        let mut rounds = 0u32;
        // Wall time inside probe rounds, reported as the `"dp"` phase.
        let mut dp_wall = Duration::ZERO;

        let search_start = Instant::now();
        let search_span = req.trace_span("speculative-search", 0);
        while lower < upper {
            chassis::check_budget(req, stats.dp_entries_touched, lower, upper)?;
            rounds += 1;
            // Candidates strictly inside [lower, upper), always including
            // the midpoint so each round at least halves the bracket.
            let span = upper - lower;
            let mut candidates: Vec<Time> = (1..=self.width as Time)
                .map(|i| lower + span * i / (self.width as Time + 1))
                .collect();
            candidates.push((lower + upper) / 2);
            candidates.sort_unstable();
            candidates.dedup();
            candidates.retain(|&t| t >= lower && t < upper);
            if candidates.is_empty() {
                candidates.push(lower);
            }

            let dp_start = Instant::now();
            let probes = probe_round(&ptas, req, &candidates, &mut stats)?;
            dp_wall += dp_start.elapsed();

            let mut feasible_min: Option<(Witness, Time)> = None;
            let mut infeasible_max: Option<Time> = None;
            for (t, witness) in probes {
                match witness {
                    Some(w) => {
                        if feasible_min.as_ref().is_none_or(|f| t < f.1) {
                            feasible_min = Some((w, t));
                        }
                    }
                    None => {
                        if infeasible_max.is_none_or(|x| t > x) {
                            infeasible_max = Some(t);
                        }
                    }
                }
            }
            if let Some(w) = feasible_min {
                upper = w.1;
                best = Some(w);
            }
            if let Some(t) = infeasible_max {
                if t + 1 > lower && t < upper {
                    lower = t + 1;
                }
            }
        }

        let (witness, target) = match best {
            Some(b) if b.1 == upper => b,
            _ => {
                // Zero-width bracket or the converged value was never probed
                // feasible: certify it directly (always feasible, see the
                // bisection invariant in pcmax-ptas).
                chassis::check_budget(req, stats.dp_entries_touched, lower, upper)?;
                let dp_start = Instant::now();
                let mut probes = probe_round(&ptas, req, &[upper], &mut stats)?;
                dp_wall += dp_start.elapsed();
                let (t, witness) = probes.pop().ok_or_else(|| Error::InvalidWitness {
                    reason: "probe round returned no result for the converged target".into(),
                })?;
                let witness = witness.ok_or_else(|| Error::InvalidWitness {
                    reason: format!(
                        "converged target {upper} probed infeasible, breaking the \
                         bracket invariant"
                    ),
                })?;
                (witness, t)
            }
        };
        drop(search_span);
        stats.push_phase("speculative-search", search_start.elapsed());
        stats.push_phase("dp", dp_wall);

        let recon_start = Instant::now();
        let recon_span = req.trace_span("reconstruct", 0);
        let schedule = ptas.reconstruct(inst, witness, target)?;
        drop(recon_span);
        stats.push_phase("reconstruct", recon_start.elapsed());
        stats.wall = run_start.elapsed();
        chassis::record_totals(&stats);
        Ok((schedule, target, rounds, stats))
    }
}

/// Probes all `candidates` concurrently as one level of the persistent
/// pool (one worker per candidate, each with a private scratch arena)
/// through `ptas`'s scenario probe, merging every probe's scratch
/// counters and the round pool's own park/wake traffic into the run's
/// stats.
fn probe_round(
    ptas: &Ptas<ParallelDp>,
    req: &SolveRequest<'_>,
    candidates: &[Time],
    stats: &mut SolveStats,
) -> Result<Vec<(Time, Option<Witness>)>> {
    let inst = req.instance;
    let probes: Vec<Probe> = candidates
        .iter()
        .map(|&t| (t, DpScratch::new(), Ok(None)))
        .collect();
    let (probes, round) = persistent::run_levels(probes, 0..1, |_, _, probe| {
        let (t, scratch, witness) = probe;
        let _probe_span = req.trace_span("probe", *t);
        *witness = ptas.probe(inst, *t, scratch).map(|(_, w)| w);
    });
    stats.pool_parks += round.parks;
    stats.pool_wakes += round.wakes;
    let mut out = Vec::with_capacity(probes.len());
    for (t, scratch, witness) in probes {
        chassis::merge_scratch(stats, &scratch);
        stats.bisection_probes += 1;
        out.push((t, witness?));
    }
    Ok(out)
}

impl Solver for SpeculativePtas {
    fn solver_name(&self) -> &'static str {
        "SpeculativePTAS"
    }

    fn solve(&self, req: &SolveRequest<'_>) -> Result<SolveReport> {
        let (schedule, target, _rounds, stats) = self.run(req)?;
        Ok(chassis::report(req.instance, schedule, target, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::lower_bound;
    use pcmax_ptas::Ptas;

    fn instance() -> Instance {
        Instance::new(
            vec![23, 19, 17, 13, 11, 7, 5, 3, 2, 2, 29, 31, 8, 14, 26, 4],
            4,
        )
        .unwrap()
    }

    #[test]
    fn width_one_matches_plain_bisection() {
        let inst = instance();
        let seq = Ptas::new(0.3).unwrap().solve_detailed(&inst).unwrap();
        let (schedule, target, _) = SpeculativePtas::new(0.3, 1)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!(target, seq.target);
        assert_eq!(schedule.makespan(&inst), seq.schedule.makespan(&inst));
    }

    #[test]
    fn wider_search_takes_fewer_rounds_and_keeps_the_guarantee() {
        let inst = instance();
        let (s1, t1, r1) = SpeculativePtas::new(0.3, 1)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        let (s4, t4, r4) = SpeculativePtas::new(0.3, 4)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert!(r4 <= r1, "w=4 rounds {r4} vs w=1 rounds {r1}");
        for (s, t) in [(&s1, t1), (&s4, t4)] {
            s.validate(&inst).unwrap();
            assert!(t >= lower_bound(&inst));
            // (1 + 1/k)·T* plus integer slack.
            assert!(s.makespan(&inst) as f64 <= 1.25 * t as f64 + 4.0);
        }
    }

    #[test]
    fn certified_target_is_sound_for_all_widths() {
        use pcmax_exact::BranchAndBound;
        let inst = Instance::new(vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 12], 3).unwrap();
        let opt = BranchAndBound::default().solve_detailed(&inst).unwrap();
        assert!(opt.proven);
        for width in [1, 2, 3, 8] {
            let (_, target, _) = SpeculativePtas::new(0.3, width)
                .unwrap()
                .solve_detailed(&inst)
                .unwrap();
            assert!(
                target <= opt.best,
                "width {width}: target {target} exceeds optimum {}",
                opt.best
            );
        }
    }

    #[test]
    fn rounds_bound_is_respected() {
        let inst = instance();
        for width in [1usize, 3, 7] {
            let algo = SpeculativePtas::new(0.3, width).unwrap();
            let (_, _, rounds) = algo.solve_detailed(&inst).unwrap();
            assert!(
                rounds <= algo.rounds_bound(&inst) + 1,
                "width {width}: {rounds} rounds vs bound {}",
                algo.rounds_bound(&inst)
            );
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 3).unwrap();
        let (s, t, r) = SpeculativePtas::new(0.3, 4)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!((s.jobs(), t, r), (0, 0, 0));
    }

    #[test]
    fn solver_report_accounts_every_probe() {
        let inst = instance();
        let algo = SpeculativePtas::new(0.3, 3).unwrap();
        let report = algo.solve(&SolveRequest::new(&inst)).unwrap();
        assert_eq!(report.makespan, report.schedule.makespan(&inst));
        assert!(report.stats.bisection_probes >= 1);
        assert!(report.stats.dp_entries_touched > 0);
        assert!(report.certified_target.is_some());
    }

    #[test]
    fn precancelled_request_aborts() {
        use pcmax_core::CancelToken;
        let inst = instance();
        let cancel = CancelToken::new();
        cancel.cancel();
        let req = SolveRequest::new(&inst).with_cancel(cancel);
        let algo = SpeculativePtas::new(0.3, 2).unwrap();
        assert!(matches!(algo.run(&req), Err(Error::Cancelled)));
    }
}

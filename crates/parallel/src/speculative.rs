//! Speculative parallel bisection — an *extension* beyond the paper.
//!
//! The paper parallelizes the DP inside each bisection probe and keeps the
//! bisection itself sequential. When the DP tables are small (short jobs,
//! few classes), per-level parallelism is starved; a complementary source of
//! parallelism is to probe **several candidate targets concurrently** each
//! round (`w`-ary search instead of binary). The search is the chassis'
//! one loop, [`chassis::search`], run with `w` candidates per round; this
//! module is only its round prober, which probes a round's candidates as
//! one level of the persistent worker pool. Soundness is unchanged, since
//! the bracket updates rest on the same one-sided proofs as binary search
//! (see `search`).
//!
//! The converged target may differ from plain bisection's by the usual
//! rounding non-monotonicity of the dual-approximation framework, but it
//! carries the identical `(1+ε)` guarantee. With `width = 1` this *is*
//! binary search.

use crate::persistent;
use crate::wavefront::ParallelDp;
use pcmax_core::{
    Instance, MakespanBounds, Result, Schedule, SolveReport, SolveRequest, SolveStats, Solver, Time,
};
use pcmax_ptas::chassis;
use pcmax_ptas::table::DpScratch;
use pcmax_ptas::{EpsilonParams, Ptas};

/// The speculative-bisection parallel PTAS.
#[derive(Debug, Clone)]
pub struct SpeculativePtas {
    params: EpsilonParams,
    /// Candidate targets probed concurrently per round (`≥ 1`).
    pub width: usize,
    /// Most worker threads of each probe's DP sweep (`None` = all cores).
    pub threads: Option<usize>,
}

impl SpeculativePtas {
    /// Speculative PTAS probing `width` targets per round, each probe
    /// sweeping on all cores.
    pub fn new(epsilon: f64, width: usize) -> Result<Self> {
        Ok(Self {
            params: EpsilonParams::new(epsilon)?,
            width: width.max(1),
            threads: None,
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

    /// Full solve under an engine request: [`chassis::search`] with `width`
    /// candidates per round. Each round's candidates are probed
    /// concurrently, one pool worker and one scratch arena per candidate,
    /// without the profile cache. Returns the schedule, the certified
    /// target, the number of search rounds and the stats of every probe.
    pub fn run(&self, req: &SolveRequest<'_>) -> Result<(Schedule, Time, u32, SolveStats)> {
        let ptas = Ptas::with_solver(
            self.params.epsilon,
            ParallelDp {
                threads: self.threads,
            },
        )?;
        let (out, stats) = chassis::search(
            &ptas,
            req,
            self.width,
            DpScratch::new(),
            |candidates, run, _| {
                let probes = candidates
                    .iter()
                    .map(|&(t, ..)| (t, DpScratch::new(), Ok((u32::MAX, None))))
                    .collect();
                let (probes, round) =
                    persistent::run_levels(probes, 0..1, |_, _, (t, scratch, probed)| {
                        let _probe_span = req.trace_span("probe", *t);
                        *probed = chassis::probe(&ptas, req.instance, *t, scratch, None);
                    });
                run.pool_parks += round.parks;
                run.pool_wakes += round.wakes;
                for ((_, dp_machines, witness), (_, scratch, probed)) in
                    candidates.iter_mut().zip(probes)
                {
                    run.absorb(&scratch);
                    (*dp_machines, *witness) = probed?;
                }
                Ok(())
            },
        )?;
        Ok((out.schedule, out.target, out.log.rounds, stats))
    }
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
    use pcmax_core::{lower_bound, Error};
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

    /// U(1,100), m = 10, n = 30, seed 1: a bracket wide enough for several
    /// w-ary rounds.
    fn u100_instance() -> Instance {
        use pcmax_workloads::{generate, Distribution, Family};
        generate(Family::new(10, 30, Distribution::U1To100), 1)
    }

    #[test]
    fn search_results_are_pinned_per_width() {
        let inst = u100_instance();
        // (width, certified target, rounds, probes, makespan)
        for (width, target, rounds, probes, makespan) in [
            (1, 164, 7, 7, 168),
            (3, 164, 4, 10, 168),
            (4, 164, 3, 13, 168),
        ] {
            let (schedule, t, r, stats) = SpeculativePtas::new(0.3, width)
                .unwrap()
                .run(&SolveRequest::new(&inst))
                .unwrap();
            assert_eq!(
                (t, r, stats.bisection_probes, schedule.makespan(&inst)),
                (target, rounds, probes, makespan),
                "width {width}"
            );
        }
    }

    #[test]
    fn a_cancel_raised_by_the_last_probe_stops_reconstruction() {
        use pcmax_core::{CancelToken, TraceSink};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Cancels its token as the `at`-th `probe` span closes, on
        /// whichever pool worker closes it.
        struct CancelAtProbe {
            token: CancelToken,
            closed: AtomicU64,
            at: u64,
        }

        impl TraceSink for CancelAtProbe {
            fn span_enter(&self, _name: &'static str, _arg: u64) {}

            fn span_exit(&self, name: &'static str) {
                if name == "probe" && self.closed.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
                    self.token.cancel();
                }
            }

            fn instant(&self, _name: &'static str, _arg: u64) {}

            fn counter(&self, _name: &'static str, _value: u64) {}
        }

        let inst = u100_instance();
        // Width 4 on this instance makes 13 probes; the 13th is the last.
        let token = CancelToken::new();
        let sink = Arc::new(CancelAtProbe {
            token: token.clone(),
            closed: AtomicU64::new(0),
            at: 13,
        });
        let req = SolveRequest::new(&inst)
            .with_cancel(token)
            .with_trace(sink.clone());
        let result = SpeculativePtas::new(0.3, 4).unwrap().run(&req);
        assert_eq!(sink.closed.load(Ordering::SeqCst), 13, "all probes ran");
        assert!(
            matches!(result, Err(Error::Cancelled)),
            "a cancel raised before reconstruction must abort, got {:?}",
            result.map(|(schedule, ..)| schedule.makespan(&inst))
        );
    }
}

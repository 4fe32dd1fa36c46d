//! Speculative `w`-ary bisection — an *extension* beyond the paper.
//!
//! The paper parallelizes the DP inside each bisection probe and keeps the
//! bisection itself sequential. [`SpeculativePtas`] widens the search
//! instead: each round probes `w` candidate targets (`w`-ary search instead
//! of binary). It is the chassis' one loop, [`chassis::search`], run with
//! `w` candidates per round over [`ParallelDp`], every probe on the caller.
//! Soundness is unchanged, since the bracket updates rest on the same
//! one-sided proofs as binary search (see `search`).
//!
//! The converged target may differ from plain bisection's by the usual
//! rounding non-monotonicity of the dual-approximation framework, but it
//! carries the identical `(1+ε)` guarantee. With `width = 1` this *is*
//! binary search. It is no registry solver: once the search probes `LB`
//! first, one probe settles nearly every solve, and where `LB` is
//! infeasible the wider rounds measured slower than `par-ptas`
//! (EXPERIMENTS.md, "LB-first search").

use crate::wavefront::ParallelDp;
use pcmax_core::{Instance, Result, Schedule, SolveRequest, Time};
use pcmax_ptas::chassis;
use pcmax_ptas::Ptas;

/// The speculative-bisection PTAS.
#[derive(Debug, Clone)]
pub struct SpeculativePtas {
    ptas: Ptas<ParallelDp>,
    /// Candidate targets probed per round (`≥ 1`).
    width: usize,
}

impl SpeculativePtas {
    /// Speculative PTAS probing `width` targets per round, each probe
    /// sweeping on all cores.
    pub fn new(epsilon: f64, width: usize) -> Result<Self> {
        Ok(Self {
            ptas: Ptas::with_solver(epsilon, ParallelDp::default())?,
            width: width.max(1),
        })
    }

    /// Full solve, returning the schedule, the certified target and the
    /// number of probe rounds executed.
    pub fn solve_detailed(&self, inst: &Instance) -> Result<(Schedule, Time, u32)> {
        let (out, _) = chassis::search(&self.ptas, &SolveRequest::new(inst), self.width)?;
        Ok((out.schedule, out.target, out.log.rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::{lower_bound, Error, SolveStats};
    use pcmax_ptas::PtasOutput;

    /// [`chassis::search`] at `width` over the wavefront PTAS at ε = 0.3.
    fn search(req: &SolveRequest<'_>, width: usize) -> Result<(PtasOutput, SolveStats)> {
        let ptas = Ptas::with_solver(0.3, ParallelDp::default()).unwrap();
        chassis::search(&ptas, req, width)
    }

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
    fn empty_instance() {
        let inst = Instance::new(vec![], 3).unwrap();
        let (s, t, r) = SpeculativePtas::new(0.3, 4)
            .unwrap()
            .solve_detailed(&inst)
            .unwrap();
        assert_eq!((s.jobs(), t, r), (0, 0, 0));
    }

    #[test]
    fn precancelled_request_aborts() {
        use pcmax_core::CancelToken;
        let inst = instance();
        let cancel = CancelToken::new();
        cancel.cancel();
        let req = SolveRequest::new(&inst).with_cancel(cancel);
        assert!(matches!(search(&req, 2), Err(Error::Cancelled)));
    }

    /// `lpt_adversarial(10, 1)`: its `LB` 29 is infeasible at ε = 0.3, so
    /// the w-ary rounds run on after the first.
    fn lb_infeasible_instance() -> Instance {
        pcmax_workloads::lpt_adversarial(10, 1)
    }

    #[test]
    fn search_results_are_pinned_per_width() {
        let inst = lb_infeasible_instance();
        // (width, certified target, rounds, probes, makespan)
        for (width, target, rounds, probes, makespan) in
            [(1, 30, 6, 6, 32), (3, 30, 4, 8, 32), (4, 30, 3, 9, 32)]
        {
            let (out, stats) = search(&SolveRequest::new(&inst), width).unwrap();
            assert_eq!(
                (
                    out.target,
                    out.log.rounds,
                    stats.bisection_probes,
                    out.schedule.makespan(&inst)
                ),
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

        /// Cancels its token as the `at`-th `probe` span closes.
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
        }

        let inst = lb_infeasible_instance();
        // Width 4 on this instance makes 9 probes; the 9th is the last.
        let token = CancelToken::new();
        let sink = Arc::new(CancelAtProbe {
            token: token.clone(),
            closed: AtomicU64::new(0),
            at: 9,
        });
        let req = SolveRequest::new(&inst)
            .with_cancel(token)
            .with_trace(sink.clone());
        let result = search(&req, 4);
        assert_eq!(sink.closed.load(Ordering::SeqCst), 9, "all probes ran");
        assert!(
            matches!(result, Err(Error::Cancelled)),
            "a cancel raised before reconstruction must abort, got {:?}",
            result.map(|(out, _)| out.schedule.makespan(&inst))
        );
    }
}

//! Satellite property test: every solver in the registry, on random small
//! instances, produces a valid schedule covering every job whose makespan
//! respects the guarantee the registry advertises for it; the PTAS family
//! passes the same checks on LPT's adversarial families.

use pcmax_core::{Instance, SolveRequest, Time};
use pcmax_engine::{registry, SolverParams, SolverSpec};
use pcmax_exact::BranchAndBound;
use pcmax_workloads::lpt_adversarial;
use pcmax_workloads::special::lpt_worst_case_deterministic;
use proptest::prelude::*;

/// Proven optimum via the combinatorial branch-and-bound (unlimited budget;
/// instances here are small enough that it always proves).
fn proven_opt(inst: &Instance) -> Time {
    let out = BranchAndBound::default().solve_detailed(inst).unwrap();
    assert!(out.proven, "branch-and-bound must prove on tiny instances");
    out.best
}

/// The checks every solve must pass against the proven optimum `opt`: a
/// valid schedule covering every job, at least `opt` and within the
/// guarantee the registry advertises for `spec`, and a certificate, when
/// present, at most the makespan and at most `opt`.
fn check_against_opt(
    spec: &SolverSpec,
    params: &SolverParams,
    inst: &Instance,
    opt: Time,
) -> TestCaseResult {
    let solver = spec.build(params).unwrap();
    let report = solver
        .solve(&SolveRequest::new(inst))
        .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name));

    // The schedule is well-formed and covers every job.
    report.schedule.validate(inst).unwrap();
    prop_assert_eq!(
        report.schedule.jobs(),
        inst.jobs(),
        "{} must cover all jobs",
        spec.name
    );
    prop_assert_eq!(
        report.makespan,
        report.schedule.makespan(inst),
        "{} must report its schedule's makespan",
        spec.name
    );

    // No solver beats the proven optimum, and each stays within the
    // guarantee the registry advertises.
    prop_assert!(report.makespan >= opt, "{} beat the optimum", spec.name);
    let bound = spec.guarantee.makespan_bound(opt, params.epsilon);
    prop_assert!(
        report.makespan as f64 <= bound + 1e-9,
        "{}: makespan {} exceeds guarantee bound {} (opt {})",
        spec.name,
        report.makespan,
        bound,
        opt
    );

    // A certificate, when present, never exceeds the makespan and
    // lower-bounds the proven optimum it certifies against.
    if let Some(target) = report.certified_target {
        prop_assert!(target <= report.makespan, "{}", spec.name);
        prop_assert!(target <= opt, "{} certified above OPT", spec.name);
    }
    if report.proven_optimal {
        prop_assert_eq!(
            report.makespan,
            opt,
            "{} claimed a false optimum",
            spec.name
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_registered_solver_respects_its_guarantee(
        times in prop::collection::vec(1u64..=30, 1..=7),
        machines in 1usize..=3,
    ) {
        let inst = Instance::new(times, machines).unwrap();
        let opt = proven_opt(&inst);
        let params = SolverParams::default();
        for spec in registry() {
            check_against_opt(spec, &params, &inst, opt)?;
        }
    }
}

/// The same checks for the PTAS family on LPT's adversarial families, where
/// Equation (1)'s lower bound is often infeasible and the search bisects on
/// after probing it: `lpt_adversarial` for m ∈ {5, 10} and seeds 1–5, and
/// the deterministic worst case, whose optimum is 3m by construction.
#[test]
fn the_ptas_family_respects_its_guarantee_on_lpt_adversarial_inputs() {
    let params = SolverParams::default();
    let ptas_family: Vec<&SolverSpec> = registry()
        .iter()
        .filter(|spec| ["ptas", "par-ptas"].contains(&spec.name))
        .collect();
    assert_eq!(ptas_family.len(), 2);
    let adversarial = [5, 10]
        .into_iter()
        .flat_map(|m| (1..=5).map(move |seed| lpt_adversarial(m, seed)));
    let deterministic = [3, 5, 8].into_iter().map(|m| {
        let inst = lpt_worst_case_deterministic(m);
        assert_eq!(proven_opt(&inst), 3 * m as Time);
        inst
    });
    for inst in adversarial.chain(deterministic) {
        let opt = proven_opt(&inst);
        for spec in &ptas_family {
            if let Err(err) = check_against_opt(spec, &params, &inst, opt) {
                panic!("{err:?} on {:?}", inst.times());
            }
        }
    }
}

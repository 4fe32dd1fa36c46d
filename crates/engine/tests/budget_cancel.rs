//! Satellite budget/cancellation test: every registered solver honours a
//! pre-cancelled token, and tiny budgets surface as the dedicated
//! budget-exhausted error (or an anytime incumbent) — never a hang or panic.

use pcmax_core::{Budget, CancelToken, Error, Instance, SolveRequest};
use pcmax_engine::{build, registry, SolverParams};
use pcmax_workloads::{generate, Distribution, Family};
use std::time::{Duration, Instant};

fn instance() -> Instance {
    Instance::new(vec![9, 8, 7, 7, 6, 5, 5, 4, 3], 3).unwrap()
}

/// 14 U(1,100) jobs on 5 machines (seed 1): a few ms per branch-and-bound
/// node, and well past a minute for `milp`'s default 20,000 nodes.
fn slow_milp_instance() -> Instance {
    generate(Family::new(5, 14, Distribution::U1To100), 1)
}

/// How long after its deadline or cancel a `milp` solve may still run. The
/// gate runs once per node, a few ms of LP in a release build and more in a
/// debug one under a loaded host; an ungated solve of the instance above
/// runs for a minute or more.
const MILP_STOP_SLACK: Duration = Duration::from_secs(2);

#[test]
fn precancelled_token_stops_every_registered_solver() {
    let inst = instance();
    for spec in registry() {
        let solver = spec.build(&SolverParams::default()).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let req = SolveRequest::new(&inst).with_cancel(cancel);
        match solver.solve(&req) {
            Err(Error::Cancelled) => {}
            Err(other) => panic!("{}: expected Cancelled, got {other:?}", spec.name),
            Ok(_) => panic!("{}: expected Cancelled, got a schedule", spec.name),
        }
    }
}

#[test]
fn expired_deadline_is_a_dedicated_error() {
    let inst = instance();
    let req = SolveRequest::new(&inst).with_budget(Budget::with_timeout(std::time::Duration::ZERO));
    let solver = build("ptas", &SolverParams::default()).unwrap();
    assert!(matches!(
        solver.solve(&req),
        Err(Error::BudgetExhausted { .. })
    ));
}

#[test]
fn exact_tiny_node_budget_returns_anytime_incumbent() {
    let inst = instance();
    let req = SolveRequest::new(&inst).with_budget(Budget::unlimited().nodes(1));
    let report = build("exact", &SolverParams::default())
        .unwrap()
        .solve(&req)
        .unwrap();
    report.schedule.validate(&inst).unwrap();
    assert_eq!(report.makespan, report.schedule.makespan(&inst));
    // One node cannot prove optimality here, but the incumbent and its
    // proven lower bound still bracket the optimum.
    assert!(!report.proven_optimal);
    assert!(report.certified_target.unwrap() <= report.makespan);
}

#[test]
fn milp_tiny_node_budget_is_a_dedicated_error() {
    let inst = instance();
    let req = SolveRequest::new(&inst).with_budget(Budget::unlimited().nodes(1));
    match build("milp", &SolverParams::default()).unwrap().solve(&req) {
        Err(Error::BudgetExhausted { .. }) => {}
        Err(other) => panic!("expected BudgetExhausted, got {other:?}"),
        Ok(_) => panic!("expected BudgetExhausted, got a schedule"),
    }
}

#[test]
fn milp_stops_at_its_deadline() {
    let inst = slow_milp_instance();
    let req =
        SolveRequest::new(&inst).with_budget(Budget::with_timeout(Duration::from_millis(100)));
    let start = Instant::now();
    let result = build("milp", &SolverParams::default()).unwrap().solve(&req);
    let elapsed = start.elapsed();
    match result {
        Err(Error::BudgetExhausted { lower_bound, .. }) => {
            assert_eq!(lower_bound, pcmax_core::lower_bound(&inst))
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(100) + MILP_STOP_SLACK,
        "answered after {elapsed:?}"
    );
}

#[test]
fn milp_stops_promptly_when_cancelled_mid_solve() {
    let inst = slow_milp_instance();
    let cancel = CancelToken::new();
    let req = SolveRequest::new(&inst).with_cancel(cancel.clone());
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        cancel.cancel();
        Instant::now()
    });
    let result = build("milp", &SolverParams::default()).unwrap().solve(&req);
    let stopped = Instant::now();
    let cancelled_at = canceller.join().unwrap();
    assert!(
        matches!(result, Err(Error::Cancelled)),
        "expected Cancelled, got {result:?}"
    );
    let lag = stopped.saturating_duration_since(cancelled_at);
    assert!(lag < MILP_STOP_SLACK, "stopped {lag:?} after the cancel");
}

#[test]
fn exhausted_milp_without_a_schedule_reports_no_incumbent() {
    let inst = slow_milp_instance();
    let req = SolveRequest::new(&inst).with_budget(Budget::unlimited().nodes(1));
    match build("milp", &SolverParams::default()).unwrap().solve(&req) {
        Err(
            e @ Error::BudgetExhausted {
                incumbent: None,
                lower_bound,
            },
        ) => {
            assert_eq!(lower_bound, pcmax_core::lower_bound(&inst));
            assert!(!e.to_string().contains(&u64::MAX.to_string()), "{e}")
        }
        other => panic!("expected BudgetExhausted without an incumbent, got {other:?}"),
    }
}

/// `exact` and `fptas` each stop within [`MILP_STOP_SLACK`] of a 100 ms
/// deadline on an instance each works on for seconds without one:
/// `exact` answers with its incumbent, not proven optimal, and `fptas`
/// with `BudgetExhausted` and Equation (1)'s lower bound.
#[test]
fn exact_and_fptas_stop_at_their_deadline() {
    let deadline = Duration::from_millis(100);
    let timed = |name: &str, inst: &Instance| {
        let req = SolveRequest::new(inst).with_budget(Budget::with_timeout(deadline));
        let start = Instant::now();
        let result = build(name, &SolverParams::default()).unwrap().solve(&req);
        let elapsed = start.elapsed();
        assert!(
            elapsed < deadline + MILP_STOP_SLACK,
            "{name} answered after {elapsed:?}"
        );
        result
    };

    let inst = generate(Family::new(10, 60, Distribution::U1To100), 1);
    let report = timed("exact", &inst).expect("exact answers with its incumbent");
    report.schedule.validate(&inst).unwrap();
    assert!(!report.proven_optimal);
    assert!(report.certified_target.unwrap() <= report.makespan);

    let inst = generate(Family::new(5, 40, Distribution::U1To100), 1);
    match timed("fptas", &inst) {
        Err(Error::BudgetExhausted {
            incumbent: None,
            lower_bound,
        }) => assert_eq!(lower_bound, pcmax_core::lower_bound(&inst)),
        other => panic!("fptas: expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn unlimited_requests_still_succeed_for_every_solver() {
    let inst = instance();
    for spec in registry() {
        let report = spec
            .build(&SolverParams::default())
            .unwrap()
            .solve(&SolveRequest::new(&inst))
            .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name));
        report.schedule.validate(&inst).unwrap();
    }
}

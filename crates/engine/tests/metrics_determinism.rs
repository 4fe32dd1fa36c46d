//! Pinned guarantee: metrics are observation-only. Recording must never
//! steer a solver — the same request solved with metrics enabled and
//! disabled returns bit-identical reports (schedule, makespan, certified
//! target, optimality claim).

use pcmax_core::{Instance, SolveReport};
use pcmax_engine::{comparators_for, Engine, EngineConfig, ScenarioKind, SolverParams, Submission};
use std::sync::Mutex;

/// One metered solve through the session engine (the cache is off so every
/// run does the full work, keeping the on/off comparison symmetric).
fn submit(engine: &Engine, inst: &Instance, name: &str, params: &SolverParams) -> SolveReport {
    engine
        .submit(
            Submission::new(inst.clone(), name)
                .with_params(params.clone())
                .without_cache(),
        )
        .unwrap_or_else(|e| panic!("{name}: submit: {e}"))
        .wait()
        .unwrap_or_else(|e| panic!("{name}: solve: {e}"))
}

/// Serialises the tests in this file around the process-global enable
/// flag, and restores the entry state on drop (panic included).
static ENABLE_FLAG: Mutex<()> = Mutex::new(());

struct RestoreEnabled(bool);

impl Drop for RestoreEnabled {
    fn drop(&mut self) {
        pcmax_metrics::set_enabled(self.0);
    }
}

#[test]
fn solver_reports_are_bit_identical_with_metrics_on_and_off() {
    let _serial = ENABLE_FLAG.lock().unwrap_or_else(|p| p.into_inner());
    let _restore = RestoreEnabled(pcmax_metrics::enabled());

    // Large enough to drive the PTAS family through a real DP sweep.
    let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3, 23, 29], 4).unwrap();
    let params = SolverParams {
        epsilon: 0.3,
        threads: Some(2),
    };
    let engine = Engine::with_config(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    for spec in comparators_for(ScenarioKind::Identical) {
        pcmax_metrics::set_enabled(true);
        let on = submit(&engine, &inst, spec.name, &params);

        pcmax_metrics::set_enabled(false);
        let off = submit(&engine, &inst, spec.name, &params);

        assert_eq!(
            on.makespan, off.makespan,
            "{}: makespan diverged",
            spec.name
        );
        assert_eq!(
            on.schedule, off.schedule,
            "{}: schedule diverged",
            spec.name
        );
        assert_eq!(
            on.certified_target, off.certified_target,
            "{}: certified target diverged",
            spec.name
        );
        assert_eq!(
            on.proven_optimal, off.proven_optimal,
            "{}: optimality claim diverged",
            spec.name
        );
    }
    engine.shutdown();
}

#[test]
fn disabled_recording_is_invisible_in_the_snapshot() {
    let _serial = ENABLE_FLAG.lock().unwrap_or_else(|p| p.into_inner());
    let _restore = RestoreEnabled(pcmax_metrics::enabled());

    let inst = Instance::new(vec![5, 4, 3, 2, 1], 2).unwrap();
    let params = SolverParams::default();
    let spec = comparators_for(ScenarioKind::Identical).next().unwrap();

    pcmax_metrics::set_enabled(false);
    let before = pcmax_metrics::snapshot();
    let engine = Engine::with_config(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    submit(&engine, &inst, spec.name, &params);
    engine.shutdown();
    let after = pcmax_metrics::snapshot();

    let count_of = |snap: &pcmax_metrics::Snapshot| {
        snap.histogram("pcmax_solve_latency_nanos", Some(spec.name))
            .map_or(0, |h| h.count())
    };
    assert_eq!(
        count_of(&before),
        count_of(&after),
        "a disabled solve still recorded a latency observation"
    );
}

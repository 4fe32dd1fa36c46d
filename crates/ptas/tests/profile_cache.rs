//! The chassis's profile-cache path, seen from the cache's side: the exact
//! keys a `P||Cmax` and a `Q||Cmax` solve pass to `get` and `put`, and the
//! hit accounting of a `Q||Cmax` re-solve. The multi-probe cases run on
//! instances whose `LB` probe is infeasible, so the search goes on to
//! bisect; where `LB` is feasible a solve is that one probe.

use pcmax_core::{
    lower_bound, DpOutcome, Instance, ProfileCache, ProfileKey, SolveRequest, Solver,
};
use pcmax_ptas::{Ptas, QPtas};
use pcmax_workloads::{generate_uniform, lpt_adversarial, Distribution, Family, SpeedFamily};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An unbounded map cache that logs every call it receives.
#[derive(Default)]
struct RecordingCache {
    map: Mutex<HashMap<ProfileKey, DpOutcome>>,
    calls: Mutex<Vec<(&'static str, ProfileKey)>>,
}

impl RecordingCache {
    fn calls(&self) -> Vec<(&'static str, ProfileKey)> {
        self.calls.lock().unwrap().clone()
    }
}

impl ProfileCache for RecordingCache {
    fn get(&self, key: &ProfileKey) -> Option<DpOutcome> {
        self.calls.lock().unwrap().push(("get", key.clone()));
        self.map.lock().unwrap().get(key).cloned()
    }

    fn put(&self, key: ProfileKey, outcome: DpOutcome) {
        self.calls.lock().unwrap().push(("put", key.clone()));
        self.map.lock().unwrap().insert(key, outcome);
    }
}

fn key(scenario: &'static str, machines: u32, caps_units: &[u64], counts: &[u32]) -> ProfileKey {
    ProfileKey {
        scenario,
        eps_micros: 300_000,
        machines,
        caps_units: caps_units.to_vec(),
        counts: counts.to_vec(),
    }
}

/// Every cold probe of one solve: a `get` that misses, then a `put`.
fn get_put(keys: &[ProfileKey]) -> Vec<(&'static str, ProfileKey)> {
    keys.iter()
        .flat_map(|k| [("get", k.clone()), ("put", k.clone())])
        .collect()
}

fn solve_recorded(solver: &dyn Solver, inst: &Instance) -> Vec<(&'static str, ProfileKey)> {
    let cache = Arc::new(RecordingCache::default());
    solver
        .solve(&SolveRequest::new(inst).with_cache(cache.clone()))
        .unwrap();
    cache.calls()
}

/// `U(1, 2m−1)`, m = 20, n = 30, seed 2, speeds `U(1, 4)`: `LB` 14 and a
/// certified target of 16 at ε = 0.3, over nine probes with distinct keys.
fn q_lb_infeasible() -> Instance {
    let base = Family::new(20, 30, Distribution::U1TwoMMinus1);
    generate_uniform(SpeedFamily::new(base, 4), 2)
}

#[test]
fn ptas_profile_keys_are_pinned() {
    // `LB` 29 is infeasible at ε = 0.3, and the bisection certifies 30.
    let inst = lpt_adversarial(10, 1);
    let calls = solve_recorded(&Ptas::new(0.3).unwrap(), &inst);
    let expected = get_put(&[
        key(
            "p",
            10,
            &[14],
            &[0, 0, 0, 0, 6, 6, 4, 3, 2, 0, 0, 0, 0, 0, 0, 0],
        ),
        key(
            "p",
            10,
            &[12],
            &[0, 0, 6, 9, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
        key(
            "p",
            10,
            &[11],
            &[0, 0, 6, 9, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
        key(
            "p",
            10,
            &[16],
            &[0, 0, 0, 0, 6, 6, 4, 3, 2, 0, 0, 0, 0, 0, 0, 0],
        ),
        key(
            "p",
            10,
            &[15],
            &[0, 0, 0, 0, 6, 6, 4, 3, 2, 0, 0, 0, 0, 0, 0, 0],
        ),
    ]);
    assert_eq!(calls, expected);
}

#[test]
fn ptas_q_profile_keys_are_pinned() {
    let inst = q_lb_infeasible();
    let calls = solve_recorded(&QPtas::new(0.3).unwrap(), &inst);
    // Capacities in units, fastest first: three machines of speed 4,
    // three of speed 3, seven of speed 2 and seven of speed 1.
    let caps = |fast: u64, mid: u64, slow: u64, slowest: u64| {
        let mut caps = vec![fast; 3];
        caps.extend([mid; 3]);
        caps.extend([slow; 7]);
        caps.extend([slowest; 7]);
        caps
    };
    let caps_units = [
        caps(14, 10, 7, 3),
        caps(16, 12, 8, 4),
        caps(15, 11, 7, 3),
        caps(15, 11, 7, 3),
        caps(15, 11, 7, 3),
        caps(15, 11, 7, 3),
        caps(13, 10, 6, 3),
        caps(16, 12, 8, 4),
        caps(15, 11, 7, 3),
    ];
    let counts = [
        [0, 0, 0, 2, 5, 2, 2, 1, 5, 0, 0, 0, 0, 0, 0, 0],
        [0; 16],
        [0; 16],
        [0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 4, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 5, 4, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 5, 4, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, 5, 2, 2, 1, 5, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, 5, 2, 2, 1, 5, 0, 0, 0, 0, 0, 0, 0],
    ];
    let keys: Vec<ProfileKey> = caps_units
        .iter()
        .zip(&counts)
        .map(|(caps, counts)| key("q", 20, caps, counts))
        .collect();
    assert_eq!(calls, get_put(&keys));
}

#[test]
fn a_solve_whose_lower_bound_is_feasible_is_one_probe() {
    // (instance, solver, the one key its probe at `LB` passes to the cache)
    let p = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap();
    let q = Instance::with_speeds(vec![30, 25, 22, 18, 14, 9, 6], vec![2, 2, 1]).unwrap();
    let cases: [(Instance, Box<dyn Solver>, ProfileKey); 2] = [
        (
            p,
            Box::new(Ptas::new(0.3).unwrap()),
            key(
                "p",
                4,
                &[14],
                &[0, 0, 0, 1, 2, 1, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0],
            ),
        ),
        (
            q,
            Box::new(QPtas::new(0.3).unwrap()),
            key(
                "q",
                3,
                &[12, 12, 6],
                &[0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ),
        ),
    ];
    for (inst, solver, lb_key) in cases {
        let cache = Arc::new(RecordingCache::default());
        let report = solver
            .solve(&SolveRequest::new(&inst).with_cache(cache.clone()))
            .unwrap();
        assert_eq!(report.certified_target, Some(lower_bound(&inst)));
        assert_eq!(report.stats.bisection_probes, 1);
        assert_eq!(cache.calls(), get_put(&[lb_key]));
    }
}

#[test]
fn q_cached_resolve_is_bit_identical_and_counts_hits() {
    let inst = q_lb_infeasible();
    let qptas = QPtas::new(0.3).unwrap();
    let cache: Arc<dyn ProfileCache> = Arc::new(RecordingCache::default());

    let cold = qptas
        .solve(&SolveRequest::new(&inst).with_cache(cache.clone()))
        .unwrap();
    assert!(cold.stats.bisection_probes > 1, "want several probes");
    assert_eq!(cold.stats.cache_hits, 0, "cold run hits nothing");
    assert_eq!(
        cold.stats.cache_misses, cold.stats.bisection_probes,
        "every cold probe consults and misses"
    );

    let warm = qptas
        .solve(&SolveRequest::new(&inst).with_cache(cache))
        .unwrap();
    assert_eq!(
        warm.stats.cache_hits, warm.stats.bisection_probes,
        "every warm probe is a hit"
    );
    assert_eq!(warm.stats.cache_misses, 0);
    assert_eq!(warm.stats.dp_cells, 0, "hits skip the DP entirely");
    assert_eq!(warm.certified_target, cold.certified_target);
    assert_eq!(warm.schedule, cold.schedule);
    assert_eq!(warm.makespan, cold.makespan);
}

//! The chassis's profile-cache path, seen from the cache's side: the exact
//! keys a `P||Cmax` and a `Q||Cmax` solve pass to `get` and `put`, and the
//! hit accounting of a `Q||Cmax` re-solve.

use pcmax_core::{DpOutcome, Instance, ProfileCache, ProfileKey, SolveRequest, Solver};
use pcmax_ptas::{Ptas, QPtas};
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
        eps_micros: 400_000,
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

#[test]
fn ptas_profile_keys_are_pinned() {
    let inst = Instance::new(vec![19, 17, 16, 12, 11, 10, 9, 7, 5, 3], 4).unwrap();
    let calls = solve_recorded(&Ptas::new(0.4).unwrap(), &inst);
    let expected = get_put(&[
        key("p", 4, &[7], &[0, 0, 3, 0, 0, 0, 0, 0, 0]),
        key("p", 4, &[8], &[0, 1, 1, 3, 0, 0, 0, 0, 0]),
        key("p", 4, &[7], &[0, 1, 1, 3, 0, 0, 0, 0, 0]),
        key("p", 4, &[7], &[0, 2, 1, 3, 0, 0, 0, 0, 0]),
    ]);
    assert_eq!(calls, expected);
}

#[test]
fn ptas_q_profile_keys_are_pinned() {
    let inst = Instance::with_speeds(vec![30, 25, 22, 18, 14, 9, 6], vec![2, 2, 1]).unwrap();
    let calls = solve_recorded(&QPtas::new(0.4).unwrap(), &inst);
    let expected = get_put(&[
        key("q", 3, &[8, 8, 4], &[0, 0, 1, 0, 0, 0, 0, 0, 0]),
        key("q", 3, &[8, 8, 4], &[0, 0, 2, 0, 0, 0, 0, 0, 0]),
        key("q", 3, &[8, 8, 4], &[0, 0, 2, 1, 0, 0, 0, 0, 0]),
        key("q", 3, &[9, 9, 4], &[0, 0, 1, 1, 1, 0, 0, 0, 0]),
        key("q", 3, &[8, 8, 4], &[0, 0, 2, 1, 1, 0, 0, 0, 0]),
    ]);
    assert_eq!(calls, expected);
}

#[test]
fn q_cached_resolve_is_bit_identical_and_counts_hits() {
    let inst = Instance::with_speeds(vec![17, 13, 11, 9, 8, 7, 5, 4, 2], vec![3, 2, 1]).unwrap();
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

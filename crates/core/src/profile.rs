//! Instance-profile caching: the key that turns repeat traffic into O(1)
//! DP lookups.
//!
//! The PTAS rounds every instance into at most `k²` job-size classes and
//! probes a target makespan `T` with a DP whose feasibility predicate is
//! `Σ (i+1)·s_i·unit ≤ cap` per machine — every config load is a multiple
//! of the rounding unit, so the predicate is equivalent to
//! `Σ (i+1)·s_i ≤ ⌊cap/unit⌋` and the *unit scales out entirely*. The DP
//! outcome (minimum machine count) and the deterministically extracted
//! witness configs are therefore a pure function of
//!
//! * the class-count vector `N` (which encodes `k`, hence ε, structurally),
//! * the machine capacities in units, `⌊cap/unit⌋` (one shared value for
//!   identical machines, a fastest-first vector for uniform machines),
//! * the machine count `m`.
//!
//! [`ProfileKey`] captures exactly that (plus ε in fixed point, belt and
//! braces against two ε values colliding on the same class layout), and a
//! [`ProfileCache`] memoizes [`DpOutcome`]s across solves. A probe rounds
//! the instance once, builds the key from that rounding, and on a hit skips
//! the DP; on a miss it stores the freshly computed outcome. Wildly
//! different raw instances collapse onto the same key — the property that
//! makes a serving layer's profile memo effective under repeat traffic.

use crate::Time;

/// Cache fingerprint of one rounded DP subproblem. Two probes with equal
/// keys have bit-identical DP outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// Scenario tag (`"p"` identical machines, `"q"` uniform machines).
    pub scenario: &'static str,
    /// ε in micro-units (`round(ε·1e6)`); redundant with the class layout
    /// but keeps distinct ε values from ever sharing an entry.
    pub eps_micros: u64,
    /// Machine count `m` (the feasibility threshold for the DP outcome).
    pub machines: u32,
    /// Machine capacities in rounding units, `⌊cap/unit⌋`: a single entry
    /// for identical machines, the fastest-first per-machine vector for
    /// uniform machines.
    pub caps_units: Vec<Time>,
    /// Full-width class-count vector `N` (length `k²`).
    pub counts: Vec<u32>,
}

/// Outcome of one DP probe: what the DP computes, and what a
/// [`ProfileCache`] stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpOutcome {
    /// `OPT(N)` — minimum machines for the rounded long jobs within `T`
    /// (`u32::MAX` if the vector is not schedulable at all, which cannot
    /// happen for vectors produced by rounding).
    pub machines: u32,
    /// Per-machine configurations (full `k²` width), extracted only when
    /// `machines ≤ m`; length = `machines`, in extraction order.
    pub schedule: Option<Vec<Vec<u32>>>,
}

impl DpOutcome {
    /// Whether the rounded jobs fit on the machine budget.
    pub fn feasible(&self) -> bool {
        self.schedule.is_some()
    }
}

/// A shared memo of DP outcomes keyed on rounded-instance profiles.
///
/// Implementations must be safe to consult from concurrent solves; the
/// serving engine provides the production implementation (a bounded map
/// behind the audit-visible sync seam). `get`/`put` racing on the same key
/// is benign by construction: every writer computes the same outcome.
pub trait ProfileCache: Send + Sync {
    /// Looks up the outcome for `key`, if cached.
    fn get(&self, key: &ProfileKey) -> Option<DpOutcome>;

    /// Stores the outcome for `key`. Implementations may evict arbitrarily.
    fn put(&self, key: ProfileKey, outcome: DpOutcome);
}

/// ε in micro-units for [`ProfileKey::eps_micros`].
pub fn eps_micros(epsilon: f64) -> u64 {
    (epsilon * 1e6).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    struct MapCache(Mutex<HashMap<ProfileKey, DpOutcome>>);

    impl ProfileCache for MapCache {
        fn get(&self, key: &ProfileKey) -> Option<DpOutcome> {
            self.0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get(key)
                .cloned()
        }

        fn put(&self, key: ProfileKey, outcome: DpOutcome) {
            self.0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(key, outcome);
        }
    }

    fn key(caps: Vec<Time>, counts: Vec<u32>) -> ProfileKey {
        ProfileKey {
            scenario: "p",
            eps_micros: eps_micros(0.3),
            machines: 4,
            caps_units: caps,
            counts,
        }
    }

    #[test]
    fn round_trips_through_a_map() {
        let cache = MapCache(Mutex::new(HashMap::new()));
        let k = key(vec![15], vec![0, 2, 0, 3]);
        assert_eq!(cache.get(&k), None);
        cache.put(
            k.clone(),
            DpOutcome {
                machines: 2,
                schedule: Some(vec![vec![0, 2, 0, 0], vec![0, 0, 0, 3]]),
            },
        );
        let hit = cache.get(&k).expect("stored outcome");
        assert_eq!(hit.machines, 2);
        // A different cap-in-units is a different profile.
        assert_eq!(cache.get(&key(vec![14], vec![0, 2, 0, 3])), None);
    }

    #[test]
    fn eps_fixed_point_distinguishes_close_epsilons() {
        assert_ne!(eps_micros(0.3), eps_micros(0.300001));
        assert_eq!(eps_micros(0.25), 250_000);
    }
}

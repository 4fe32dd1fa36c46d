//! The engine-owned instance-profile cache.
//!
//! [`ProfileMemo`] is the concrete [`ProfileCache`] the session engine
//! attaches to every cached submission: a bounded FIFO memo from the rounded
//! `(m, ε, class-vector)` fingerprint ([`pcmax_core::ProfileKey`]) to the
//! memoized DP outcome ([`pcmax_core::DpOutcome`]). The map lives
//! behind the audited [`pcmax_parallel::sync::Mutex`], so the audit
//! explorer can interleave worker threads *through* the cache and prove the
//! session/cache seam race-free — the same seam discipline as the wavefront
//! pool.
//!
//! What a hit saves and what it must not skip: the outcome carries machine
//! counts and witness *configs* only — per-instance witness reconstruction
//! (mapping configs back to this request's concrete job ids) always re-runs
//! under the caller's own `Budget`/`CancelToken`, and per-solve stats are
//! counted fresh. A hit is a DP shortcut, never a reused answer.

use pcmax_core::{DpOutcome, ProfileCache, ProfileKey};
use pcmax_metrics::Gauge;
use pcmax_parallel::sync::{self, AtomicCounter};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;

/// Entries resident in the engine profile cache (last engine to update
/// wins; the daemon runs one engine per process).
static CACHE_ENTRIES: Gauge = Gauge::new(
    "pcmax_profile_cache_entries",
    "Entries resident in the engine instance-profile cache",
);

/// A bounded FIFO memo of DP outcomes keyed by instance profile.
///
/// Thread-safe (implements [`ProfileCache`], which is `Send + Sync`);
/// eviction is oldest-inserted-first, so a long-running daemon's resident
/// set follows the traffic mix. Refreshing an existing key replaces the
/// outcome in place without extending its lifetime.
#[derive(Debug)]
pub struct ProfileMemo {
    capacity: usize,
    state: sync::Mutex<MemoState>,
    hits: AtomicCounter,
    misses: AtomicCounter,
}

#[derive(Debug, Default)]
struct MemoState {
    map: HashMap<ProfileKey, DpOutcome>,
    order: VecDeque<ProfileKey>,
}

impl ProfileMemo {
    /// A memo holding at most `capacity` outcomes (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: sync::Mutex::new(MemoState::default()),
            hits: AtomicCounter::new(0),
            misses: AtomicCounter::new(0),
        }
    }

    /// Lookups that found an outcome, over the memo's lifetime.
    pub fn hits(&self) -> u64 {
        // audit:allow(relaxed): monotonic statistic, read for reporting only.
        self.hits.load(Ordering::Relaxed) as u64
    }

    /// Lookups that missed, over the memo's lifetime.
    pub fn misses(&self) -> u64 {
        // audit:allow(relaxed): monotonic statistic, read for reporting only.
        self.misses.load(Ordering::Relaxed) as u64
    }
}

impl ProfileCache for ProfileMemo {
    fn get(&self, key: &ProfileKey) -> Option<DpOutcome> {
        let found = self.state.lock().map.get(key).cloned();
        let ctr = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        // audit:allow(relaxed): monotonic statistic; ordering carries no data.
        ctr.fetch_add(1, Ordering::Relaxed);
        found
    }

    fn put(&self, key: ProfileKey, outcome: DpOutcome) {
        let mut st = self.state.lock();
        // Refresh in place without extending the key's FIFO lifetime.
        if let std::collections::hash_map::Entry::Occupied(mut e) = st.map.entry(key.clone()) {
            e.insert(outcome);
            return;
        }
        while st.map.len() >= self.capacity {
            match st.order.pop_front() {
                Some(oldest) => {
                    st.map.remove(&oldest);
                }
                None => break,
            }
        }
        st.order.push_back(key.clone());
        st.map.insert(key, outcome);
        CACHE_ENTRIES.set(st.map.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(machines: u32) -> ProfileKey {
        ProfileKey {
            scenario: "p",
            eps_micros: 300_000,
            machines,
            caps_units: vec![16],
            counts: vec![1, 2, 3],
        }
    }

    fn infeasible(machines: u32) -> DpOutcome {
        DpOutcome {
            machines,
            schedule: None,
        }
    }

    /// Outcomes resident in `memo`.
    fn resident(memo: &ProfileMemo) -> usize {
        memo.state.lock().map.len()
    }

    #[test]
    fn get_put_roundtrip_counts_hits_and_misses() {
        let memo = ProfileMemo::new(8);
        assert!(memo.get(&key(2)).is_none());
        memo.put(key(2), infeasible(3));
        assert_eq!(memo.get(&key(2)), Some(infeasible(3)));
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert_eq!(resident(&memo), 1);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let memo = ProfileMemo::new(2);
        memo.put(key(1), infeasible(1));
        memo.put(key(2), infeasible(2));
        memo.put(key(3), infeasible(3));
        assert_eq!(resident(&memo), 2);
        assert!(memo.get(&key(1)).is_none(), "oldest entry evicted");
        assert!(memo.get(&key(2)).is_some() && memo.get(&key(3)).is_some());
    }

    #[test]
    fn refresh_replaces_without_growing() {
        let memo = ProfileMemo::new(2);
        memo.put(key(1), infeasible(1));
        memo.put(
            key(1),
            DpOutcome {
                machines: 1,
                schedule: Some(vec![vec![1, 0, 0]]),
            },
        );
        assert_eq!(resident(&memo), 1);
        assert!(memo.get(&key(1)).is_some_and(|o| o.feasible()));
    }
}

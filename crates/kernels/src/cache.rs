//! The workload memo table, [`WorkloadCache`], the one cache in this
//! crate. Workloads depend only on `(app, scale, vector length)`, yet
//! every harness used to rebuild them ad hoc (the orchestrator prebuilt
//! a per-call map, the sweeps kept a one-slot cache, the figures rebuilt
//! from scratch). The cache is the single shared hook: build once, hand
//! out cheap [`Arc`] clones forever, safe to share across a campaign's
//! worker threads.

use crate::{build_workload, App, Workload, WorkloadScale};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Key of one memoised workload.
pub(crate) type WorkloadKey = (App, WorkloadScale, u32);

/// A thread-safe memo table over [`build_workload`].
///
/// Lowering a kernel is pure, so a cache miss builds *outside* the lock
/// (two threads racing on the same key build identical workloads and
/// one insert wins) — workers never serialise behind kernel lowering.
/// Entries live as long as the cache: a campaign that is done with its
/// workloads drops the cache (with the engine that owns it).
#[derive(Debug, Default)]
pub struct WorkloadCache {
    map: Mutex<HashMap<WorkloadKey, Arc<Workload>>>,
}

impl WorkloadCache {
    /// An empty cache.
    pub fn new() -> WorkloadCache {
        WorkloadCache::default()
    }

    /// The workload for `(app, scale, vl_bits)`, built on first use.
    pub fn get(&self, app: App, scale: WorkloadScale, vl_bits: u32) -> Arc<Workload> {
        let key = (app, scale, vl_bits);
        if let Some(w) = self.map.lock().expect("workload cache poisoned").get(&key) {
            return Arc::clone(w);
        }
        let built = Arc::new(build_workload(app, scale, vl_bits));
        let mut map = self.map.lock().expect("workload cache poisoned");
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// Number of distinct workloads currently memoised.
    pub fn len(&self) -> usize {
        self.map.lock().expect("workload cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoises_and_shares_one_build() {
        let cache = WorkloadCache::new();
        let a = cache.get(App::Stream, WorkloadScale::Tiny, 128);
        let b = cache.get(App::Stream, WorkloadScale::Tiny, 128);
        assert!(Arc::ptr_eq(&a, &b), "second get must reuse the first build");
        assert_eq!(cache.len(), 1);
        cache.get(App::Stream, WorkloadScale::Tiny, 256);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_workload_matches_fresh_build() {
        let cache = WorkloadCache::new();
        let cached = cache.get(App::TeaLeaf, WorkloadScale::Tiny, 512);
        let fresh = build_workload(App::TeaLeaf, WorkloadScale::Tiny, 512);
        assert_eq!(cached.summary, fresh.summary);
        assert_eq!(cached.program.ops, fresh.program.ops);
    }

    #[test]
    fn concurrent_gets_agree() {
        let cache = WorkloadCache::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get(App::MiniSweep, WorkloadScale::Tiny, 128)))
                .collect();
            let first = cache.get(App::MiniSweep, WorkloadScale::Tiny, 128);
            for h in handles {
                assert_eq!(h.join().unwrap().summary, first.summary);
            }
        });
        assert_eq!(cache.len(), 1);
    }
}

//! Thread-safe memoisation primitives.
//!
//! Two caches live here:
//!
//! * [`WorkloadCache`] — the workload memo table. Workloads depend only
//!   on `(app, scale, vector length)`, yet every harness used to
//!   rebuild them ad hoc (the orchestrator prebuilt a per-call map, the
//!   sweeps kept a one-slot cache, the figures rebuilt from scratch).
//!   The cache is the single shared hook: build once, hand out cheap
//!   [`Arc`] clones forever, safe to share across a campaign's worker
//!   threads.
//! * [`ShardedCache`] — a generic bounded shard-locked map, the storage
//!   layer of the simulator's run-memoizing backend (which keys
//!   finished run results; see `armdse-simcore`'s `reuse` module).
//!   It lives in this crate beside [`WorkloadCache`] so every
//!   memoisation policy sits in one place, and because `armdse-kernels`
//!   is below the simulator in the dependency order — the cache is
//!   generic over its key/value types, so it needs nothing from above.

use crate::{build_workload, App, Workload, WorkloadScale};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Running totals of a [`ShardedCache`]'s traffic. Monotone within one
/// cache lifetime ([`ShardedCache::clear`] resets them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Values actually inserted (get-or-insert races that lost count as
    /// hits, not insertions).
    pub insertions: u64,
    /// Entries dropped to keep a shard within its capacity bound.
    pub evictions: u64,
}

/// One lock's worth of a [`ShardedCache`]: the map plus FIFO insertion
/// order for eviction.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Arc<V>>,
    order: VecDeque<K>,
}

/// A bounded, shard-locked, get-or-insert memo table.
///
/// * **Sharded** — keys hash to one of `shards` independently locked
///   segments, so concurrent workers on different keys never contend.
/// * **Bounded** — each shard holds at most `⌈capacity / shards⌉`
///   entries and evicts its oldest insertion (FIFO) beyond that, so the
///   cache's footprint is a configuration constant, not a function of
///   campaign length.
/// * **Get-or-insert** — [`insert`](Self::insert) returns the existing
///   [`Arc`] when the key is already present, so two threads racing to
///   memoise the same (deterministic) computation agree on one value.
///
/// Values are handed out as [`Arc`]s: eviction drops the cache's
/// reference, never a holder's.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> ShardedCache<K, V> {
    /// A cache of `shards` segments bounded at `capacity` total entries
    /// (rounded up to a multiple of the shard count).
    pub fn new(shards: usize, capacity: usize) -> ShardedCache<K, V> {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Look `key` up, counting a hit or miss.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let shard = self.shard(key).lock().expect("sharded cache poisoned");
        match shard.map.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(v))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert `value` under `key`, or return the already-present value
    /// (get-or-insert; neither a hit nor a miss is counted). Evicts the
    /// shard's oldest insertion when over capacity.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        let mut shard = self.shard(&key).lock().expect("sharded cache poisoned");
        if let Some(v) = shard.map.get(&key) {
            return Arc::clone(v);
        }
        while shard.order.len() >= self.per_shard_capacity {
            let victim = shard.order.pop_front().expect("order matches map");
            shard.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let v = Arc::new(value);
        shard.order.push_back(key.clone());
        shard.map.insert(key, Arc::clone(&v));
        self.insertions.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// Total entries currently resident.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("sharded cache poisoned").map.len())
            .sum()
    }

    /// Drop every entry and reset the traffic counters.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            let mut shard = s.lock().expect("sharded cache poisoned");
            shard.map.clear();
            shard.order.clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.insertions.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
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

    #[test]
    fn sharded_cache_get_or_insert_and_stats() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(4, 64);
        assert!(cache.get(&1).is_none());
        let a = cache.insert(1, 10);
        let b = cache.insert(1, 999); // loses the race: existing value wins
        assert_eq!((*a, *b), (10, 10));
        assert_eq!(*cache.get(&1).unwrap(), 10);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn sharded_cache_bounds_each_shard_fifo() {
        // One shard makes eviction order fully observable.
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 3);
        for k in 0..5 {
            cache.insert(k, k * 100);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 2);
        // Oldest insertions (0, 1) were evicted, newest (2, 3, 4) remain.
        assert!(cache.get(&0).is_none() && cache.get(&1).is_none());
        for k in 2..5 {
            assert_eq!(*cache.get(&k).unwrap(), k * 100);
        }
    }

    #[test]
    fn sharded_cache_eviction_keeps_holders_alive() {
        let cache: ShardedCache<u64, Vec<u64>> = ShardedCache::new(1, 1);
        let held = cache.insert(7, vec![7; 32]);
        cache.insert(8, vec![8; 32]); // evicts key 7
        assert!(cache.get(&7).is_none());
        assert_eq!(held[0], 7, "evicted value must stay valid for holders");
    }

    #[test]
    fn sharded_cache_concurrent_insert_converges() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(16, 4096);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..100).map(|k| *cache.insert(k, k)).sum::<u64>()))
                .collect();
            for h in handles {
                // Every thread sees the same winning values.
                assert_eq!(h.join().unwrap(), (0..100).sum::<u64>());
            }
        });
        assert_eq!(cache.len(), 100);
    }
}

//! Set-associative cache tag array with true LRU replacement.

use std::cell::RefCell;
use std::mem::take;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present.
    Hit,
    /// Line absent; no line was displaced (an invalid way was filled).
    MissFilled,
    /// Line absent; a clean line was evicted to make room.
    MissEvictClean,
    /// Line absent; a dirty line was evicted (write-back traffic).
    MissEvictDirty,
}

/// A cache's arrays while no cache owns them: every tag zero, the
/// metadata stale, the set list empty.
type Storage = (Vec<u64>, Vec<u64>, Vec<u32>);

thread_local! {
    /// Storage of this thread's dropped caches, reused by its next ones.
    static FREE: RefCell<Vec<Storage>> = const { RefCell::new(Vec::new()) };
}

/// A set-associative, write-back, write-allocate cache tag array.
///
/// Timing lives in the hierarchy; this structure answers only *presence*
/// questions and maintains replacement state.
///
/// Storage is two parallel `u64` arrays, not an array of way structs:
/// the hit path touches only tags, at twice the density. The arrays are
/// the thread's: a cache takes the smallest free pair that fits (else a
/// fresh zeroed pair) and gives it back on drop, zeroing only the tags
/// of the sets it filled. Those are all sets with a valid tag: a set's
/// first fill lands in way 0 (the invalid-way search returns the first
/// zero tag, and no way is ever invalidated) and is recorded then. So a
/// recycled cache reads like a zeroed one at every index it uses; stale
/// metadata is never read while its way is invalid, and in its own
/// array never shows through as a tag under another geometry.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `(line_addr << 1) | 1` when the way is valid, `0` when invalid.
    tags: Vec<u64>,
    /// `(lru_tick << 1) | dirty`, meaningless while the way is invalid.
    meta: Vec<u64>,
    /// Sets whose way 0 this cache filled: the only sets with valid tags.
    filled: Vec<u32>,
    sets: u32,
    assoc: u32,
    line_bytes: u32,
    tick: u64,
}

impl Cache {
    /// Build a cache of `size_kib` KiB with `assoc` ways and
    /// `line_bytes`-byte lines. Set count must be a power of two
    /// (guaranteed by [`crate::MemParams::validate`]).
    pub fn new(size_kib: u32, assoc: u32, line_bytes: u32) -> Cache {
        let lines = size_kib as u64 * 1024 / u64::from(line_bytes);
        let sets = (lines / u64::from(assoc)) as u32;
        assert!(sets.is_power_of_two() && sets > 0, "invalid cache geometry");
        let n = (sets * assoc) as usize;
        // Best fit; a pair too small is replaced (calloc needs no memset).
        let (mut tags, mut meta, filled) = FREE
            .with(|free| {
                let mut free = free.borrow_mut();
                let fit = |(_, s): &(usize, &Storage)| (s.0.len() < n, s.0.len().abs_diff(n));
                let (i, _) = free.iter().enumerate().min_by_key(fit)?;
                Some(free.swap_remove(i))
            })
            .unwrap_or_default();
        if tags.len() < n {
            (tags, meta) = (vec![0; n], vec![0; n]);
        }
        #[cfg(feature = "check-invariants")]
        assert!(
            tags[..n].iter().all(|&t| t == 0),
            "recycled cache storage holds a valid tag"
        );
        Cache {
            tags,
            meta,
            filled,
            sets,
            assoc,
            line_bytes,
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        ((line_addr / u64::from(self.line_bytes)) & u64::from(self.sets - 1)) as usize
    }

    /// Probe for `line_addr` without changing any state.
    #[inline] // see `access`
    pub fn probe(&self, line_addr: u64) -> bool {
        let tag = (line_addr << 1) | 1;
        let a = self.assoc as usize;
        let base = self.set_of(line_addr) * a;
        self.tags[base..base + a].contains(&tag)
    }

    /// Access `line_addr`, allocating on miss, updating LRU, and setting
    /// the dirty bit for stores.
    // `Hierarchy`'s request path is `#[inline]`, so it is inlined into
    // the crates that drive it; without `#[inline]` here the tag lookup
    // would be an opaque cross-crate call on every request.
    #[inline]
    pub fn access(&mut self, line_addr: u64, is_store: bool) -> LookupResult {
        debug_assert!(line_addr < 1 << 63, "address overflows tag encoding");
        self.tick += 1;
        let tick = self.tick;
        let tag = (line_addr << 1) | 1;
        let a = self.assoc as usize;
        let set = self.set_of(line_addr);
        let tags = &mut self.tags[set * a..(set + 1) * a];
        let meta = &mut self.meta[set * a..(set + 1) * a];

        if let Some(i) = tags.iter().position(|&t| t == tag) {
            meta[i] = (tick << 1) | (meta[i] & 1) | u64::from(is_store);
            return LookupResult::Hit;
        }

        // Miss: prefer an invalid way, otherwise evict the LRU way (ticks
        // are unique, so min-by-meta is min-by-tick among valid ways).
        let (victim_idx, result) = match tags.iter().position(|&t| t == 0) {
            Some(i) => (i, LookupResult::MissFilled),
            None => {
                let (i, m) = meta
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, m)| *m)
                    .expect("assoc >= 1");
                let r = if m & 1 != 0 {
                    LookupResult::MissEvictDirty
                } else {
                    LookupResult::MissEvictClean
                };
                (i, r)
            }
        };
        if victim_idx == 0 && result == LookupResult::MissFilled {
            self.filled.push(set as u32);
        }
        tags[victim_idx] = tag;
        meta[victim_idx] = (tick << 1) | u64::from(is_store);
        result
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> u32 {
        self.sets * self.assoc
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u32 {
        let tags = &self.tags[..self.capacity_lines() as usize];
        tags.iter().filter(|&&t| t != 0).count() as u32
    }
}

impl Drop for Cache {
    /// Zero the filled sets' tags and give the storage to the thread.
    fn drop(&mut self) {
        let a = self.assoc as usize;
        for &set in &self.filled {
            self.tags[set as usize * a..(set as usize + 1) * a].fill(0);
        }
        self.filled.clear();
        let storage = (
            take(&mut self.tags),
            take(&mut self.meta),
            take(&mut self.filled),
        );
        // Once the thread's locals are being torn down it is simply freed.
        let _ = FREE.try_with(|free| free.borrow_mut().push(storage));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 1 KiB, 2-way, 64 B lines → 8 sets.
        Cache::new(1, 2, 64)
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.capacity_lines(), 16);
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000, false), LookupResult::MissFilled);
        assert_eq!(c.access(0x1000, false), LookupResult::Hit);
        assert!(c.probe(0x1000));
        assert!(!c.probe(0x2000));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (8 sets × 64 B stride ⇒
        // addresses 512 B apart share a set).
        let a = 0x0000;
        let b = 0x0200;
        let d = 0x0400;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recent
        assert_eq!(c.access(d, false), LookupResult::MissEvictClean); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.access(0x0000, true); // dirty
        c.access(0x0200, false);
        let r = c.access(0x0400, false); // evicts dirty 0x0000
        assert_eq!(r, LookupResult::MissEvictDirty);
    }

    #[test]
    fn store_hit_sets_dirty() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0000, true); // now dirty via store hit
        c.access(0x0200, false);
        assert_eq!(c.access(0x0400, false), LookupResult::MissEvictDirty);
    }

    /// Each cache is left dirty and dropped; the next, of another
    /// geometry, takes its storage on this thread and must read empty.
    #[test]
    fn recycled_storage_reads_invalid_under_any_geometry() {
        for (size, assoc, line) in [
            (64, 4, 16),
            (16, 2, 64),
            (64, 4, 16),
            (128, 8, 16),
            (1, 2, 64),
        ] {
            let mut c = Cache::new(size, assoc, line);
            assert_eq!(c.valid_lines(), 0, "{size} KiB {assoc}-way {line} B");
            assert_eq!(c.access(0, false), LookupResult::MissFilled);
            for i in 0..2 * u64::from(c.capacity_lines()) {
                c.access(i * 3 * u64::from(line), i % 3 == 0);
            }
            assert!(c.valid_lines() > c.capacity_lines() / 2);
        }
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        // 16 lines in 16 distinct (set, way) slots: addresses 64 B apart.
        for i in 0..16u64 {
            assert_eq!(c.access(i * 64, false), LookupResult::MissFilled);
        }
        assert_eq!(c.valid_lines(), 16);
        for i in 0..16u64 {
            assert!(c.probe(i * 64));
        }
    }
}

//! Set-associative cache tag array with true LRU replacement.

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

/// A set-associative, write-back, write-allocate cache tag array.
///
/// Timing lives in the hierarchy; this structure answers only *presence*
/// questions and maintains replacement state.
///
/// Storage is two parallel `u64` arrays rather than an array of way
/// structs: they zero-initialise through `alloc_zeroed` (no multi-MiB
/// memset when a large L2 is built per simulation), and the hit path
/// touches only the tag array at twice the density of the struct layout.
/// The two are the halves of ONE allocation: glibc returns a heap's
/// free top to the kernel once it reaches twice the largest block it
/// ever mapped, which two equal blocks freed together reach exactly, so
/// as two `Vec`s every simulation of the largest L2 gave its pages back
/// for the next one to fault in again.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Tags, then metadata. A tag is `(line_addr << 1) | 1` when its way
    /// is valid, `0` when invalid; a way's metadata is
    /// `(lru_tick << 1) | dirty`, meaningless while invalid.
    ways: Vec<u64>,
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
        Cache {
            ways: vec![0; 2 * n],
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
        self.ways[base..base + a].contains(&tag)
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
        let base = self.set_of(line_addr) * a;
        let (tags, meta) = self.ways.split_at_mut((self.sets * self.assoc) as usize);

        if let Some(i) = tags[base..base + a].iter().position(|&t| t == tag) {
            let m = &mut meta[base + i];
            *m = (tick << 1) | (*m & 1) | u64::from(is_store);
            return LookupResult::Hit;
        }

        // Miss: prefer an invalid way, otherwise evict the LRU way (ticks
        // are unique, so min-by-meta is min-by-tick among valid ways).
        let (victim_idx, result) = match tags[base..base + a].iter().position(|&t| t == 0) {
            Some(i) => (i, LookupResult::MissFilled),
            None => {
                let (i, m) = meta[base..base + a]
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
        tags[base + victim_idx] = tag;
        meta[base + victim_idx] = (tick << 1) | u64::from(is_store);
        result
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> u32 {
        self.sets * self.assoc
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u32 {
        let tags = &self.ways[..self.capacity_lines() as usize];
        tags.iter().filter(|&&t| t != 0).count() as u32
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

//! The one two-level hierarchy timing model.
//!
//! A [`Hierarchy`] is a *private front* — L1 tags, the merge window of
//! outstanding fills, exact MSHR sampling, per-core [`MemStats`], an
//! optional next-line prefetcher, a per-core address base — over a
//! [`Backside`]: the L2 tag array and DRAM. Every L1 miss, demand or
//! prefetch, takes the same path (`Hierarchy::fill`).
//!
//! ## Two DRAM policies
//!
//! * **Infinite banks** (`Backside::shared(params, 0)`) — the paper's
//!   SST default: DRAM accesses never queue. This is the simulation
//!   path of every campaign.
//! * **Finite banks** (`banks > 0`) — each line transfer occupies its
//!   bank, and later accesses to a busy bank queue. The paper
//!   attributes its Table I residual to "abstracting out important
//!   features of a modern memory subsystem such as memory banking"; we
//!   have no ThunderX2, so this deliberately *more detailed* form plays
//!   the hardware side of that validation.
//!
//! The prefetcher is a front property, read from
//! [`MemParams::prefetch_depth`] of the backside's parameters; the
//! machine that builds the backside decides it.
//!
//! ## One backside, N fronts
//!
//! The backside sits behind an `Rc<RefCell<_>>` that every front holds:
//! one front over a fresh backside is a single-core machine, N fronts
//! over one backside are the N cores of the multicore machine.
//! Contention (paper §VII) is emergent there: cores evict each other's
//! L2 lines and queue on the same banks.
//!
//! Every core of the homogeneous multicore model runs its own instance
//! of the same workload, so raw addresses coincide; a real machine would
//! give each process its own pages. Core `i`'s front offsets every
//! address by `i *` [`CORE_ADDR_STRIDE`] (zero for core 0). Shared
//! events (`l2_*`, `dram_queue_*`) are charged to the *requesting*
//! core's statistics, so each front conserves on its own and summing the
//! fronts counts every event in the machine exactly once.

use crate::cache::{Cache, LookupResult};
use crate::fasthash::FastMap;
use crate::params::{ns_to_core_cycles, MemParams};
use crate::stats::MemStats;
use crate::Cycle;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::take;
use std::rc::Rc;

/// DRAM bank count of the default machine shape on the wire and the
/// command line (Table I's hardware proxy).
pub const DEFAULT_BANKS: u32 = 8;

/// Per-core address-space stride. A power of two (so line alignment
/// survives) and far larger than any workload footprint (so per-core
/// heaps never alias in the shared L2 or DRAM banks).
pub(crate) const CORE_ADDR_STRIDE: u64 = 1 << 32;

/// A front's merge window (`in_flight`, `fills`).
type Window = (FastMap<u64, Cycle>, BinaryHeap<Reverse<Cycle>>);

thread_local! {
    /// Cleared windows of this thread's dropped fronts, capacity kept.
    static FREE: RefCell<Vec<Window>> = const { RefCell::new(Vec::new()) };
}

/// The L2-and-below half of the hierarchy: L2 tags and DRAM.
#[derive(Debug)]
pub struct Backside {
    params: MemParams,
    l2: Cache,
    /// Per-bank busy-until cycle. Empty means infinite banks: DRAM
    /// accesses never queue.
    bank_free: Vec<Cycle>,
    /// Cycles a bank is occupied per line transfer.
    bank_occupancy: u64,
    ram_lat: u64,
}

impl Backside {
    /// A backside behind the handle every [`Hierarchy`] front holds;
    /// `banks == 0` is the infinite-bank policy.
    pub fn shared(params: MemParams, banks: usize) -> Rc<RefCell<Backside>> {
        debug_assert!(params.validate().is_ok(), "invalid MemParams");
        // A line transfer occupies its bank for the interface transfer time.
        let beats = f64::from(params.line_bytes) / 8.0;
        Rc::new(RefCell::new(Backside {
            l2: Cache::new(params.l2_size_kib, params.l2_assoc, params.line_bytes),
            bank_free: vec![0; banks],
            bank_occupancy: ns_to_core_cycles(beats / params.ram_clock_ghz),
            ram_lat: params.ram_core_cycles(),
            params,
        }))
    }

    /// Resolve an L1 miss below the L1: probe the L2 and, on a miss, go
    /// to DRAM — starting when the line's bank frees up and holding it
    /// for the transfer time. `probe_done` is the cycle the L2 probe
    /// completes. Events are charged to `stats`, the requester's.
    #[inline] // inlined into the request path of the crates that drive it
    fn lookup(&mut self, line_addr: u64, probe_done: Cycle, stats: &mut MemStats) -> Cycle {
        let l2r = self.l2.access(line_addr, false);
        if l2r == LookupResult::Hit {
            stats.l2_hits += 1;
            return probe_done;
        }
        stats.l2_misses += 1;
        if l2r == LookupResult::MissEvictDirty {
            stats.writebacks += 1;
            stats.l2_writebacks += 1;
        }
        if self.bank_free.is_empty() {
            return probe_done + self.ram_lat;
        }
        let line = line_addr / u64::from(self.params.line_bytes);
        let banks = self.bank_free.len() as u64;
        let bank = &mut self.bank_free[(line % banks) as usize];
        let start = probe_done.max(*bank);
        if start > probe_done {
            stats.dram_queue_waits += 1;
            stats.dram_queue_wait_cycles += start - probe_done;
        }
        *bank = start + self.bank_occupancy;
        start + self.ram_lat
    }
}

/// Two-level write-back hierarchy with outstanding-request merging; see
/// the module docs for the DRAM policies and the shared backside.
#[derive(Debug)]
pub struct Hierarchy {
    back: Rc<RefCell<Backside>>,
    l1: Cache,
    stats: MemStats,
    /// Outstanding line fills: line address → completion cycle. Entries
    /// are trimmed lazily (stale entries are harmless: the merge check
    /// compares against `now`, and their presence suppresses redundant
    /// prefetch issue exactly as a real MSHR's allocate-on-miss would).
    in_flight: FastMap<u64, Cycle>,
    /// Completion times of every fill issued, popped eagerly at sample
    /// time so the MSHR occupancy statistics are exact (a fill is
    /// outstanding iff its completion lies strictly after `now`). Kept
    /// separate from `in_flight` so the exact sampling cannot perturb
    /// merge/prefetch timing.
    fills: BinaryHeap<Reverse<Cycle>>,
    l1_lat: u64,
    l2_lat: u64,
    line_bytes: u32,
    /// Next-line prefetch depth in lines (0: no prefetcher).
    prefetch_depth: u32,
    /// Per-core address offset (`core_index * CORE_ADDR_STRIDE`).
    core_base: u64,
}

impl Hierarchy {
    /// Core `core_index`'s front over `back`: its own L1, merge window,
    /// statistics and a next-line prefetcher of depth
    /// [`MemParams::prefetch_depth`], with L1 misses forwarded into the
    /// backside. Core 0 applies a zero address offset; core `i` shifts
    /// its whole address space by `i *` `CORE_ADDR_STRIDE`.
    pub fn new(back: Rc<RefCell<Backside>>, core_index: u32) -> Hierarchy {
        let params = back.borrow().params;
        debug_assert_eq!(CORE_ADDR_STRIDE % u64::from(params.line_bytes), 0);
        let (in_flight, fills) = FREE.with(|f| f.borrow_mut().pop()).unwrap_or_default();
        Hierarchy {
            back,
            l1: Cache::new(params.l1_size_kib, params.l1_assoc, params.line_bytes),
            stats: MemStats::default(),
            in_flight,
            fills,
            l1_lat: params.l1_hit_core_cycles(),
            l2_lat: params.l2_hit_core_cycles(),
            line_bytes: params.line_bytes,
            prefetch_depth: params.prefetch_depth,
            core_base: u64::from(core_index) * CORE_ADDR_STRIDE,
        }
    }

    /// Touch `line_addr` in the L1 tags, counting a dirty eviction.
    #[inline]
    fn l1_access(&mut self, line_addr: u64, is_store: bool) -> LookupResult {
        let r = self.l1.access(line_addr, is_store);
        if r == LookupResult::MissEvictDirty {
            self.stats.writebacks += 1;
            self.stats.l1_writebacks += 1;
        }
        r
    }

    /// The L1-miss path: resolve the line in the backside and track the
    /// fill. The caller owns the line's L1 allocation.
    #[inline]
    fn fill(&mut self, line_addr: u64, now: Cycle) -> Cycle {
        let probe_done = now + self.l1_lat + self.l2_lat;
        let complete = self
            .back
            .borrow_mut()
            .lookup(line_addr, probe_done, &mut self.stats);
        self.in_flight.insert(line_addr, complete);
        self.fills.push(Reverse(complete));
        complete
    }

    #[inline]
    fn request(&mut self, line_addr: u64, is_store: bool, now: Cycle) -> Cycle {
        debug_assert_eq!(line_addr % u64::from(self.line_bytes), 0);
        self.stats.requests += 1;
        if self.in_flight.len() > 4096 {
            self.in_flight.retain(|_, &mut c| c > now);
        }

        // Merge into an outstanding fill of the same line.
        if let Some(&complete) = self.in_flight.get(&line_addr) {
            if complete > now {
                self.stats.merged += 1;
                // Tags were already filled by the original request;
                // update LRU/dirty state.
                self.l1.access(line_addr, is_store);
                return complete;
            }
            self.in_flight.remove(&line_addr);
        }

        if self.l1_access(line_addr, is_store) == LookupResult::Hit {
            self.stats.l1_hits += 1;
            return now + self.l1_lat;
        }
        self.stats.l1_misses += 1;
        let complete = self.fill(line_addr, now);
        // Next-line prefetch after a demand miss.
        for d in 1..=u64::from(self.prefetch_depth) {
            let pf = line_addr + d * u64::from(self.line_bytes);
            if self.l1.probe(pf) || self.in_flight.contains_key(&pf) {
                continue;
            }
            self.stats.prefetches += 1;
            self.fill(pf, now);
            self.l1_access(pf, false);
        }
        complete
    }

    /// Perform a line-granular access starting at core cycle `now` and
    /// return the absolute core cycle at which the data is available
    /// (loads) or globally visible (stores). Called once per *line
    /// request*: the core splits wider accesses with
    /// [`crate::split_lines`].
    #[inline]
    pub fn access(&mut self, line_addr: u64, is_store: bool, now: Cycle) -> Cycle {
        let line_addr = line_addr + self.core_base;
        let complete = self.request(line_addr, is_store, now);
        // Outstanding-fill (MSHR) occupancy, sampled once per access.
        // Fills whose completion has passed are dropped first, so the
        // sample counts exactly the fills still in flight at `now`.
        while self.fills.peek().is_some_and(|&Reverse(t)| t <= now) {
            self.fills.pop();
        }
        let outstanding = self.fills.len() as u64;
        self.stats.mshr_peak = self.stats.mshr_peak.max(outstanding);
        self.stats.mshr_occupancy_sum += outstanding;
        #[cfg(feature = "check-invariants")]
        {
            assert_eq!(
                line_addr % u64::from(self.line_bytes),
                0,
                "unaligned line request {line_addr:#x}"
            );
            assert!(
                complete >= now,
                "completion time {complete} before request {now}"
            );
            assert_eq!(
                outstanding,
                self.in_flight.values().filter(|&&c| c > now).count() as u64,
                "exact fill count diverged from live in-flight entries"
            );
            assert!(
                self.stats.demand_requests_conserved(),
                "request accounting leak: {:?}",
                self.stats
            );
            assert!(
                self.stats.writebacks_conserved(),
                "writeback accounting leak: {:?}",
                self.stats
            );
        }
        complete
    }

    /// Cache line width in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// L1 hit latency in core cycles. The core's LSQ uses this as the
    /// store-to-load forwarding latency: SimEng-style LSQs satisfy a
    /// forwarded load through the same L1-access path, so the forward is
    /// as slow as an L1 hit (this is what exposes L1 latency/clock on
    /// store→load coupled codes like MiniSweep's wavefront).
    #[inline]
    pub fn l1_hit_latency(&self) -> u64 {
        self.l1_lat
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }
}

impl Drop for Hierarchy {
    /// Give the cleared merge window to the thread (see `Cache`'s drop).
    fn drop(&mut self) {
        self.in_flight.clear();
        self.fills.clear();
        let window = (take(&mut self.in_flight), take(&mut self.fills));
        let _ = FREE.try_with(|f| f.borrow_mut().push(window));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasthash::Fnv1a;

    fn h(prefetch: u32) -> Hierarchy {
        let mut p = MemParams::thunderx2();
        p.prefetch_depth = prefetch;
        Hierarchy::new(Backside::shared(p, 0), 0)
    }

    /// A finite-banked backside without a prefetcher, as the machine
    /// layer builds it.
    fn banked_back(p: MemParams, banks: usize) -> Rc<RefCell<Backside>> {
        Backside::shared(
            MemParams {
                prefetch_depth: 0,
                ..p
            },
            banks,
        )
    }

    /// The single-core finite-banked machine: one front over a fresh
    /// banked backside.
    fn banked(p: MemParams, banks: usize) -> Hierarchy {
        Hierarchy::new(banked_back(p, banks), 0)
    }

    #[test]
    fn cold_miss_costs_full_path() {
        let mut m = h(0);
        let t = m.access(0x1000, false, 100);
        let p = MemParams::thunderx2();
        assert_eq!(
            t,
            100 + p.l1_hit_core_cycles() + p.l2_hit_core_cycles() + p.ram_core_cycles()
        );
        assert_eq!(m.stats().l1_misses, 1);
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = h(0);
        let t1 = m.access(0x1000, false, 0);
        let t2 = m.access(0x1000, false, t1);
        assert_eq!(t2, t1 + MemParams::thunderx2().l1_hit_core_cycles());
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn same_line_request_merges_while_in_flight() {
        let mut m = h(0);
        let t1 = m.access(0x1000, false, 0);
        // Second request to the same line before the fill completes.
        let t2 = m.access(0x1000, false, 1);
        assert_eq!(t1, t2);
        assert_eq!(m.stats().merged, 1);
    }

    #[test]
    fn prefetch_hides_next_line_latency() {
        let mut m = h(2);
        let t1 = m.access(0x1000, false, 0);
        assert_eq!(m.stats().prefetches, 2);
        // Demand for the prefetched next line merges into the prefetch.
        let t2 = m.access(0x1040, false, 1);
        assert!(t2 <= t1, "prefetched line should not pay a fresh miss");
        assert_eq!(m.stats().merged, 1);
    }

    #[test]
    fn l2_hit_cheaper_than_ram() {
        let p = MemParams::thunderx2();
        let mut m = h(0);
        // Fill L1 far beyond capacity so an early line falls out of L1 but
        // stays in the (8×) larger L2.
        let lines = u64::from(p.l1_size_kib) * 1024 / u64::from(p.line_bytes);
        let mut now = 0;
        for i in 0..(lines * 2) {
            now = m.access(i * u64::from(p.line_bytes), false, now);
        }
        let s_before = *m.stats();
        let t = m.access(0, false, now); // evicted from L1, resident in L2
        assert_eq!(m.stats().l1_misses, s_before.l1_misses + 1);
        assert_eq!(m.stats().l2_hits, s_before.l2_hits + 1);
        assert_eq!(t, now + p.l1_hit_core_cycles() + p.l2_hit_core_cycles());
    }

    #[test]
    fn store_then_eviction_writes_back() {
        let mut m = h(0);
        let p = MemParams::thunderx2();
        m.access(0, true, 0);
        // Walk enough conflicting lines to evict line 0 from both levels.
        let stride = u64::from(p.line_bytes) * u64::from(p.l2_sets());
        let mut now = 1000;
        for i in 1..=u64::from(p.l2_assoc + 1) {
            now = m.access(i * stride, false, now);
        }
        assert!(m.stats().writebacks >= 1);
    }

    #[test]
    fn mshr_occupancy_is_exact_after_fill_completes() {
        // Crafted overcount pattern: fill line A, let it complete, then
        // touch line B. A stale map entry for A must not inflate the
        // sample — exactly one fill (B's) is outstanding.
        let mut m = h(0);
        let done_a = m.access(0x1000, false, 0);
        assert_eq!(m.stats().mshr_peak, 1);
        assert_eq!(m.stats().mshr_occupancy_sum, 1);
        let done_b = m.access(0x2000, false, done_a);
        assert!(done_b > done_a);
        assert_eq!(m.stats().mshr_peak, 1, "stale fill A inflated the peak");
        assert_eq!(m.stats().mshr_occupancy_sum, 2);
        // After B completes too, a third access samples zero completed
        // fills plus its own (an L1 hit adds none).
        m.access(0x2000, false, done_b);
        assert_eq!(m.stats().mshr_occupancy_sum, 2);
        assert_eq!(m.stats().mshr_peak, 1);
    }

    #[test]
    fn mshr_counts_concurrent_fills() {
        let mut m = h(0);
        // Four distinct lines requested in the same cycle: all in flight.
        for i in 0..4u64 {
            m.access(0x1000 * (i + 1), false, 0);
        }
        assert_eq!(m.stats().mshr_peak, 4);
        assert_eq!(m.stats().mshr_occupancy_sum, 1 + 2 + 3 + 4);
    }

    #[test]
    fn request_count_tracks_all_accesses() {
        let mut m = h(1);
        m.access(0x0, false, 0);
        m.access(0x40, false, 1);
        m.access(0x40, false, 2);
        assert_eq!(m.stats().requests, 3);
    }

    #[test]
    fn bank_contention_serialises_same_bank_misses() {
        let p = MemParams::thunderx2();
        let mut m = banked(p, 2);
        let stride = u64::from(p.line_bytes) * 2; // same bank every time
        let t1 = m.access(0, false, 0);
        let t2 = m.access(stride, false, 0);
        let t3 = m.access(stride * 2, false, 0);
        assert!(t2 > t1);
        assert!(t3 > t2);
    }

    #[test]
    fn different_banks_overlap() {
        let p = MemParams::thunderx2();
        let mut m = banked(p, 8);
        let lb = u64::from(p.line_bytes);
        // Eight consecutive lines land in eight distinct banks.
        let times: Vec<Cycle> = (0..8).map(|i| m.access(i * lb, false, 0)).collect();
        assert!(
            times.windows(2).all(|w| w[0] == w[1]),
            "no contention expected: {times:?}"
        );
    }

    #[test]
    fn hits_bypass_banks() {
        let p = MemParams::thunderx2();
        let mut m = banked(p, 4);
        let t1 = m.access(0, false, 0);
        let t2 = m.access(0, false, t1);
        assert_eq!(t2, t1 + p.l1_hit_core_cycles());
    }

    #[test]
    fn proxy_is_slower_than_default_on_streaming() {
        // A streaming sweep misses constantly; the banked model must cost
        // at least as much as the infinite-bank model (it also lacks the
        // prefetcher, widening the gap).
        let p = MemParams::thunderx2();
        let mut fast = h(p.prefetch_depth);
        let mut proxy = banked(p, 4);
        let lb = u64::from(p.line_bytes);
        let mut t_fast = 0;
        let mut t_proxy = 0;
        for i in 0..256 {
            t_fast = fast.access(i * lb, false, t_fast);
            t_proxy = proxy.access(i * lb, false, t_proxy);
        }
        assert!(t_proxy > t_fast, "proxy {t_proxy} vs default {t_fast}");
    }

    /// The 512-access mix of misses, re-touches (hits), merges, and
    /// strided conflicts: FNV-1a over every completion time, then the
    /// full statistics block.
    fn mixed_pattern_digest(m: &mut Hierarchy) -> u64 {
        let lb = u64::from(m.line_bytes());
        let mut h = Fnv1a::new();
        for i in 0..512u64 {
            h.u64(m.access((i % 96) * lb * 3, i % 7 == 0, i));
        }
        for v in m.stats().values() {
            h.u64(v);
        }
        h.finish()
    }

    /// Digests recorded from the separate models this hierarchy
    /// replaced (`Hierarchy`, `BankedHierarchy::with_banks(8)`).
    #[test]
    fn mixed_pattern_digests_match_the_recorded_models() {
        let p = MemParams::thunderx2();
        assert_eq!(
            mixed_pattern_digest(&mut Hierarchy::new(Backside::shared(p, 0), 0)),
            0x67fe_a74a_7b7b_2e06
        );
        assert_eq!(
            mixed_pattern_digest(&mut banked(p, 8)),
            0xe58c_829d_6178_ea0a
        );
    }

    /// The recorded digests again, each after a dirty hierarchy of the
    /// same or of the largest geometry was dropped on this thread (its
    /// tags, merge window and fill heap are what the next one reuses).
    #[test]
    fn mixed_pattern_digests_survive_a_dirty_predecessor() {
        let p = MemParams::thunderx2();
        let largest = MemParams {
            l1_size_kib: 128,
            l2_size_kib: 8192,
            line_bytes: 16,
            ..p
        };
        let dirty = |mem: MemParams| {
            let mut m = Hierarchy::new(Backside::shared(mem, 0), 0);
            let lb = u64::from(mem.line_bytes);
            for i in 0..4096u64 {
                m.access((i * 7 % 3000) * lb, i % 5 == 0, i / 2);
            }
        };
        for predecessor in [p, largest] {
            dirty(predecessor);
            assert_eq!(
                mixed_pattern_digest(&mut Hierarchy::new(Backside::shared(p, 0), 0)),
                0x67fe_a74a_7b7b_2e06
            );
            dirty(predecessor);
            assert_eq!(
                mixed_pattern_digest(&mut banked(p, 8)),
                0xe58c_829d_6178_ea0a
            );
        }
    }

    /// Two streaming cores over one backside must each finish later
    /// than a solo core (bank queues and L2 capacity are genuinely
    /// shared), and the fronts must record the queueing they suffered.
    #[test]
    fn two_ports_contend_on_shared_banks() {
        let p = MemParams::thunderx2();
        let lb = u64::from(p.line_bytes);
        // One access issued per cycle (memory-level parallelism, as an
        // OoO core's MSHRs sustain), so the banks are kept busy and
        // queueing is visible.
        let stream = |m: &mut Hierarchy| {
            let mut finish = 0;
            for i in 0..512u64 {
                finish = finish.max(m.access(i * lb, false, i));
            }
            finish
        };
        let solo = stream(&mut banked(p, 2));

        let shared = banked_back(p, 2);
        let mut a = Hierarchy::new(Rc::clone(&shared), 0);
        let mut b = Hierarchy::new(shared, 1);
        // Interleave the two streams access by access, as the slice
        // loop would at a fine grain.
        let mut ta = 0;
        let mut tb = 0;
        for i in 0..512u64 {
            ta = ta.max(a.access(i * lb, false, i));
            tb = tb.max(b.access(i * lb, false, i));
        }
        assert!(ta > solo, "core 0 must queue: {ta} !> solo {solo}");
        assert!(tb > solo, "core 1 must queue: {tb} !> solo {solo}");
        assert!(
            a.stats().dram_queue_wait_cycles + b.stats().dram_queue_wait_cycles > 0,
            "shared banks must record queue waits"
        );
    }

    /// Fewer banks means a narrower shared pipe: total streaming time
    /// must not shrink as the bank count drops.
    #[test]
    fn fewer_banks_never_speed_up_streaming() {
        let p = MemParams::thunderx2();
        let lb = u64::from(p.line_bytes);
        let finish = |banks: usize| {
            let shared = banked_back(p, banks);
            let mut a = Hierarchy::new(Rc::clone(&shared), 0);
            let mut b = Hierarchy::new(shared, 1);
            let mut finish = 0;
            for i in 0..256u64 {
                finish = finish.max(a.access(i * lb, false, i));
                finish = finish.max(b.access(i * lb, false, i));
            }
            finish
        };
        let mut prev = finish(8);
        for banks in [4, 2, 1] {
            let t = finish(banks);
            assert!(
                t >= prev,
                "{banks} banks finished at {t}, 2x banks at {prev}"
            );
            prev = t;
        }
    }

    /// Per-core address offsets keep line alignment and keep the cores'
    /// heaps disjoint: the same raw address from two fronts must not
    /// merge or hit in each other's wake.
    #[test]
    fn core_offsets_keep_address_spaces_disjoint() {
        let p = MemParams::thunderx2();
        let shared = banked_back(p, 8);
        let mut a = Hierarchy::new(Rc::clone(&shared), 0);
        let mut b = Hierarchy::new(shared, 1);
        a.access(0x1000, false, 0);
        b.access(0x1000, false, 0);
        // Both must be cold L1 misses *and* cold L2 misses: no sharing.
        assert_eq!(a.stats().l1_misses, 1);
        assert_eq!(b.stats().l1_misses, 1);
        assert_eq!(a.stats().l2_misses, 1);
        assert_eq!(b.stats().l2_misses, 1);
        assert_eq!(a.stats().merged + b.stats().merged, 0);
    }
}

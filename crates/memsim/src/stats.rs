//! Memory-hierarchy statistics counters.

/// Counters accumulated by a memory model over one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand accesses that hit in L1.
    pub l1_hits: u64,
    /// Demand accesses that missed in L1.
    pub l1_misses: u64,
    /// L1 misses that hit in L2.
    pub l2_hits: u64,
    /// L1 misses that also missed in L2 (DRAM accesses).
    pub l2_misses: u64,
    /// Demand accesses merged into an outstanding same-line request.
    pub merged: u64,
    /// Prefetch fills issued.
    pub prefetches: u64,
    /// Dirty-line writebacks (either level; equals
    /// `l1_writebacks + l2_writebacks`).
    pub writebacks: u64,
    /// Dirty lines evicted from L1.
    pub l1_writebacks: u64,
    /// Dirty lines evicted from L2 (to DRAM).
    pub l2_writebacks: u64,
    /// Total demand line requests (hits + misses + merged).
    pub requests: u64,
    /// Peak number of outstanding line fills (the MSHR analogue),
    /// sampled after each access. Exact: completed fills are dropped at
    /// sample time, so a fill is counted iff its completion lies
    /// strictly after the sampling cycle (see docs/METRICS.md).
    pub mshr_peak: u64,
    /// Sum of outstanding-fill counts sampled after each access
    /// (mean MSHR occupancy per access = `mshr_occupancy_sum /
    /// requests`). Exact, like [`MemStats::mshr_peak`].
    pub mshr_occupancy_sum: u64,
    /// DRAM accesses that found their bank busy and had to queue
    /// (always 0 over an infinite-bank [`crate::Backside`]).
    pub dram_queue_waits: u64,
    /// Total cycles DRAM accesses spent queued behind a busy bank.
    pub dram_queue_wait_cycles: u64,
}

impl MemStats {
    /// L1 demand hit rate in [0, 1]; `None` when no accesses occurred.
    pub fn l1_hit_rate(&self) -> Option<f64> {
        let total = self.l1_hits + self.l1_misses;
        (total > 0).then(|| self.l1_hits as f64 / total as f64)
    }

    /// Request-accounting conservation: every demand request is exactly
    /// one of {L1 hit, L1 miss, merged into an outstanding fill}.
    /// (Prefetch fills are counted separately and never as requests.)
    /// Asserted after every access under the `check-invariants` feature.
    #[cfg(feature = "check-invariants")]
    pub(crate) fn demand_requests_conserved(&self) -> bool {
        self.l1_hits + self.l1_misses + self.merged == self.requests
    }

    /// Writeback-accounting conservation: every writeback left exactly
    /// one cache level. Asserted alongside
    /// [`MemStats::demand_requests_conserved`].
    #[cfg(any(test, feature = "check-invariants"))]
    pub(crate) fn writebacks_conserved(&self) -> bool {
        self.l1_writebacks + self.l2_writebacks == self.writebacks
    }

    /// Mean outstanding-fill (MSHR) occupancy per access; `None` when no
    /// accesses occurred.
    #[cfg(test)]
    fn mshr_mean_occupancy(&self) -> Option<f64> {
        (self.requests > 0).then(|| self.mshr_occupancy_sum as f64 / self.requests as f64)
    }

    /// Fold another stats block into this one (parallel shard merging).
    /// `mshr_peak` merges as a maximum; every other field is a sum.
    pub fn merge(&mut self, other: &MemStats) {
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.merged += other.merged;
        self.prefetches += other.prefetches;
        self.writebacks += other.writebacks;
        self.l1_writebacks += other.l1_writebacks;
        self.l2_writebacks += other.l2_writebacks;
        self.requests += other.requests;
        self.mshr_peak = self.mshr_peak.max(other.mshr_peak);
        self.mshr_occupancy_sum += other.mshr_occupancy_sum;
        self.dram_queue_waits += other.dram_queue_waits;
        self.dram_queue_wait_cycles += other.dram_queue_wait_cycles;
    }

    /// CSV column names for [`MemStats::values`] (the metrics-row schema
    /// segment owned by the memory hierarchy).
    pub fn column_names() -> [&'static str; 14] {
        [
            "l1_hits",
            "l1_misses",
            "l2_hits",
            "l2_misses",
            "merged",
            "prefetches",
            "writebacks",
            "l1_writebacks",
            "l2_writebacks",
            "requests",
            "mshr_peak",
            "mshr_occupancy_sum",
            "dram_queue_waits",
            "dram_queue_wait_cycles",
        ]
    }

    /// Counter values in [`MemStats::column_names`] order.
    pub fn values(&self) -> [u64; 14] {
        [
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.merged,
            self.prefetches,
            self.writebacks,
            self.l1_writebacks,
            self.l2_writebacks,
            self.requests,
            self.mshr_peak,
            self.mshr_occupancy_sum,
            self.dram_queue_waits,
            self.dram_queue_wait_cycles,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates_none_when_empty() {
        let s = MemStats::default();
        assert!(s.l1_hit_rate().is_none());
    }

    #[test]
    fn hit_rates_computed() {
        let s = MemStats {
            l1_hits: 3,
            l1_misses: 1,
            l2_hits: 1,
            l2_misses: 0,
            ..Default::default()
        };
        assert!((s.l1_hit_rate().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn writeback_split_conservation() {
        let mut s = MemStats::default();
        assert!(s.writebacks_conserved());
        s.writebacks = 3;
        s.l1_writebacks = 2;
        s.l2_writebacks = 1;
        assert!(s.writebacks_conserved());
        s.l2_writebacks = 2;
        assert!(!s.writebacks_conserved());
    }

    #[test]
    fn mshr_mean_occupancy_per_access() {
        let mut s = MemStats::default();
        assert!(s.mshr_mean_occupancy().is_none());
        s.requests = 4;
        s.mshr_occupancy_sum = 6;
        assert!((s.mshr_mean_occupancy().unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn csv_columns_and_values_align() {
        let s = MemStats {
            mshr_peak: 9,
            dram_queue_wait_cycles: 17,
            ..Default::default()
        };
        let cols = MemStats::column_names();
        let vals = s.values();
        assert_eq!(cols.len(), vals.len());
        assert_eq!(
            vals[cols.iter().position(|c| *c == "mshr_peak").unwrap()],
            9
        );
        let w = cols
            .iter()
            .position(|c| *c == "dram_queue_wait_cycles")
            .unwrap();
        assert_eq!(vals[w], 17);
    }

    #[test]
    fn merge_takes_max_of_mshr_peak() {
        let mut a = MemStats {
            mshr_peak: 3,
            mshr_occupancy_sum: 10,
            dram_queue_waits: 1,
            ..Default::default()
        };
        let b = MemStats {
            mshr_peak: 2,
            mshr_occupancy_sum: 5,
            dram_queue_waits: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.mshr_peak, 3);
        assert_eq!(a.mshr_occupancy_sum, 15);
        assert_eq!(a.dram_queue_waits, 5);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = MemStats {
            l1_hits: 1,
            requests: 2,
            ..Default::default()
        };
        let b = MemStats {
            l1_hits: 4,
            writebacks: 7,
            requests: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.l1_hits, 5);
        assert_eq!(a.writebacks, 7);
        assert_eq!(a.requests, 7);
    }
}

//! Per-cycle cycle-accounting counters: top-down stall attribution and
//! per-structure occupancy histograms.
//!
//! The attribution is *exclusive*: every simulated cycle is charged to
//! exactly one [`CycleBucket`], so the conservation identity
//!
//! ```text
//! cycles == Σ retire buckets + Σ stall buckets
//! ```
//!
//! holds by construction (asserted by [`Counters::conserves`] and the
//! `tests/metrics_accounting.rs` integration test). A cycle is
//! classified at the commit edge — after writeback, LSQ memory, and
//! commit have run, before issue/dispatch/rename/fetch — by asking why
//! the *oldest in-flight instruction* did not retire. See
//! `docs/METRICS.md` for the exact decision tree, cycle-edge timing,
//! and the known attribution caveats.
//!
//! Collection is zero-cost-by-default: the pipeline only classifies and
//! samples occupancy when counters were requested
//! ([`crate::RunMode::Metrics`]), and the collection path
//! never mutates architectural or timing state, so a metrics-on run
//! returns byte-identical [`crate::SimStats`] to a metrics-off run (the
//! oracle's metrics-transparency lane pins this).

use crate::params::{CoreParams, FETCH_QUEUE_CAP, RENAME_BUFFER_CAP, RS_SIZE};

/// Histogram resolution: occupancy is binned into this many equal-width
/// fractions of the structure's capacity.
pub(crate) const OCC_BINS: usize = 8;

/// The exclusive per-cycle attribution buckets.
///
/// The first `CycleBucket::RETIRE_COUNT` variants are retire buckets
/// (at least one instruction retired this cycle, classified by the
/// oldest retired instruction); the rest are stall buckets (no
/// instruction retired, classified by what blocked the oldest
/// in-flight instruction — or the frontend, if the window was empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum CycleBucket {
    /// Retired; the oldest retired instruction was a scalar ALU/branch op.
    RetireScalar,
    /// Retired; the oldest retired instruction was an SVE vector op.
    RetireVector,
    /// Retired; the oldest retired instruction was a predicate op.
    RetirePredicate,
    /// Retired; the oldest retired instruction was a load (incl. gathers).
    RetireLoad,
    /// Retired; the oldest retired instruction was a store (incl. scatters).
    RetireStore,
    /// Window empty, fetch queue empty, program not exhausted: the fetch
    /// stage could not deliver (fetch-block alignment / taken branches).
    FetchStarved,
    /// Pipeline-fill latency: instructions exist upstream of the stage
    /// that would have had to act this cycle, and no structural resource
    /// was exhausted (fetch→rename→dispatch fill bubbles).
    FrontendLatency,
    /// Rename blocked on an empty physical-register free list.
    RenameFreeList,
    /// Oldest instruction waits in the rename buffer: reorder buffer full.
    RobFull,
    /// Oldest instruction waits in the rename buffer: reservation
    /// station full.
    RsFull,
    /// Oldest instruction (a load) waits in the rename buffer: load
    /// queue full.
    LqFull,
    /// Oldest instruction (a store) waits in the rename buffer: store
    /// queue full.
    SqFull,
    /// Oldest instruction sits in the RS with unresolved source operands.
    Dependency,
    /// Oldest instruction is ready in the RS but no port of its class was
    /// free at the previous issue opportunity.
    IssueBandwidth,
    /// Oldest instruction is executing on a port (multi-cycle latency).
    ExecLatency,
    /// Oldest instruction (a load) could not issue line requests because
    /// a per-cycle request/bandwidth budget was exhausted this cycle.
    MemRequestCap,
    /// Oldest instruction (a load) is blocked behind an older overlapping
    /// store whose data is unknown or only partially covers the load.
    MemStoreHazard,
    /// Oldest instruction (a load) has all line requests in flight and is
    /// waiting for data from the memory hierarchy.
    MemData,
    /// Oldest instruction (a load) has its data but is waiting for an LSQ
    /// completion slot (`lsq_completion_width`).
    LsqCompletion,
    /// Nothing left to fetch or commit: the store queue (or the final
    /// cycle's bookkeeping) is draining.
    Drain,
}

impl CycleBucket {
    /// Number of retire buckets (they lead the variant order).
    pub(crate) const RETIRE_COUNT: usize = 5;

    /// Every bucket, in variant (= CSV column) order.
    pub const ALL: [CycleBucket; 20] = [
        CycleBucket::RetireScalar,
        CycleBucket::RetireVector,
        CycleBucket::RetirePredicate,
        CycleBucket::RetireLoad,
        CycleBucket::RetireStore,
        CycleBucket::FetchStarved,
        CycleBucket::FrontendLatency,
        CycleBucket::RenameFreeList,
        CycleBucket::RobFull,
        CycleBucket::RsFull,
        CycleBucket::LqFull,
        CycleBucket::SqFull,
        CycleBucket::Dependency,
        CycleBucket::IssueBandwidth,
        CycleBucket::ExecLatency,
        CycleBucket::MemRequestCap,
        CycleBucket::MemStoreHazard,
        CycleBucket::MemData,
        CycleBucket::LsqCompletion,
        CycleBucket::Drain,
    ];

    /// Total bucket count.
    pub(crate) const COUNT: usize = CycleBucket::ALL.len();

    /// Stable snake-case name; retire buckets are prefixed `retire_`,
    /// stall buckets `stall_` (the metrics CSV relies on the prefixes).
    pub const fn name(self) -> &'static str {
        match self {
            CycleBucket::RetireScalar => "retire_scalar",
            CycleBucket::RetireVector => "retire_vector",
            CycleBucket::RetirePredicate => "retire_predicate",
            CycleBucket::RetireLoad => "retire_load",
            CycleBucket::RetireStore => "retire_store",
            CycleBucket::FetchStarved => "stall_fetch_starved",
            CycleBucket::FrontendLatency => "stall_frontend_latency",
            CycleBucket::RenameFreeList => "stall_rename_free_list",
            CycleBucket::RobFull => "stall_rob_full",
            CycleBucket::RsFull => "stall_rs_full",
            CycleBucket::LqFull => "stall_lq_full",
            CycleBucket::SqFull => "stall_sq_full",
            CycleBucket::Dependency => "stall_dependency",
            CycleBucket::IssueBandwidth => "stall_issue_bandwidth",
            CycleBucket::ExecLatency => "stall_exec_latency",
            CycleBucket::MemRequestCap => "stall_mem_request_cap",
            CycleBucket::MemStoreHazard => "stall_mem_store_hazard",
            CycleBucket::MemData => "stall_mem_data",
            CycleBucket::LsqCompletion => "stall_lsq_completion",
            CycleBucket::Drain => "stall_drain",
        }
    }

    /// Whether this is a retire (throughput-limited) bucket.
    pub const fn is_retire(self) -> bool {
        (self as usize) < CycleBucket::RETIRE_COUNT
    }

    /// The bucket's index in [`CycleBucket::ALL`] / the counter array.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// The pipeline structures whose occupancy is sampled every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub(crate) enum Structure {
    /// Reorder buffer (capacity `rob_size`).
    Rob,
    /// Unified reservation station (capacity [`RS_SIZE`]).
    Rs,
    /// Load queue (capacity `load_queue`).
    LoadQueue,
    /// Store queue (capacity `store_queue`).
    StoreQueue,
    /// Fetch queue (capacity [`FETCH_QUEUE_CAP`]).
    FetchQueue,
    /// Rename buffer (capacity [`RENAME_BUFFER_CAP`]).
    RenameBuffer,
}

impl Structure {
    /// Every structure, in variant (= CSV column) order.
    pub(crate) const ALL: [Structure; 6] = [
        Structure::Rob,
        Structure::Rs,
        Structure::LoadQueue,
        Structure::StoreQueue,
        Structure::FetchQueue,
        Structure::RenameBuffer,
    ];

    /// Total structure count.
    pub(crate) const COUNT: usize = Structure::ALL.len();

    /// Stable snake-case name used in CSV column prefixes.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Structure::Rob => "rob",
            Structure::Rs => "rs",
            Structure::LoadQueue => "lq",
            Structure::StoreQueue => "sq",
            Structure::FetchQueue => "fetch_q",
            Structure::RenameBuffer => "rename_buf",
        }
    }

    /// The structure's index in [`Structure::ALL`].
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// Occupancy histogram for one pipeline structure, sampled once per
/// cycle at the commit edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OccupancyHist {
    /// Structure capacity the samples are measured against.
    pub capacity: u64,
    /// Sum of per-cycle occupancy samples (mean = `sum / cycles`).
    pub sum: u64,
    /// Largest occupancy observed.
    pub peak: u64,
    /// Cycles the structure was at capacity.
    pub full_cycles: u64,
    /// Cycle counts per occupancy octile: bin `i` covers occupancies in
    /// `[i/8, (i+1)/8)` of capacity (the last bin includes capacity).
    pub bins: [u64; OCC_BINS],
}

impl OccupancyHist {
    /// An empty histogram over a structure with the given capacity.
    pub(crate) fn new(capacity: u64) -> OccupancyHist {
        OccupancyHist {
            capacity,
            sum: 0,
            peak: 0,
            full_cycles: 0,
            bins: [0; OCC_BINS],
        }
    }

    /// Record `n` consecutive samples of the same occupancy, exactly as
    /// `n` single samples would (the pipeline's idle-cycle fast-forward
    /// samples a whole skip at once: occupancy is provably constant
    /// across the skipped cycles).
    pub(crate) fn observe_n(&mut self, occ: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.sum += occ * n;
        self.peak = self.peak.max(occ);
        if self.capacity > 0 && occ >= self.capacity {
            self.full_cycles += n;
        }
        let bin = (occ * OCC_BINS as u64)
            .checked_div(self.capacity)
            .map_or(0, |b| b.min(OCC_BINS as u64 - 1));
        self.bins[bin as usize] += n;
    }

    /// Total samples recorded.
    #[cfg(test)]
    fn samples(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Mean occupancy over the recorded samples (0 when empty).
    #[cfg(test)]
    fn mean(&self) -> f64 {
        let n = self.samples();
        if n == 0 {
            return 0.0;
        }
        self.sum as f64 / n as f64
    }
}

/// Cycle-accounting counters for one simulated run.
///
/// Returned by every [`crate::SimBackend::run`] in
/// [`crate::RunMode::Metrics`]. The struct
/// is plain data: cloning, comparing, and serialising it (via
/// [`Counters::column_names`] / [`Counters::values`]) is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Total cycles attributed (equals `SimStats::cycles`).
    pub cycles: u64,
    /// Exclusive per-cycle buckets, indexed by `CycleBucket::index`.
    pub buckets: [u64; CycleBucket::COUNT],
    /// Cycles fetched from the loop buffer (supplementary, *not* part of
    /// the exclusive attribution: a loop-buffer cycle also lands in one
    /// of the exclusive buckets).
    pub loop_buffer_cycles: u64,
    /// Occupancy histograms, indexed by [`Structure::index`].
    pub(crate) occupancy: [OccupancyHist; Structure::COUNT],
}

impl Default for Counters {
    fn default() -> Counters {
        Counters {
            cycles: 0,
            buckets: [0; CycleBucket::COUNT],
            loop_buffer_cycles: 0,
            occupancy: [OccupancyHist::new(0); Structure::COUNT],
        }
    }
}

impl Counters {
    /// Empty counters with occupancy capacities taken from `params`
    /// (plus the fixed structural constants).
    pub fn new(params: &CoreParams) -> Counters {
        let cap = |s: Structure| match s {
            Structure::Rob => u64::from(params.rob_size),
            Structure::Rs => RS_SIZE as u64,
            Structure::LoadQueue => u64::from(params.load_queue),
            Structure::StoreQueue => u64::from(params.store_queue),
            Structure::FetchQueue => FETCH_QUEUE_CAP as u64,
            Structure::RenameBuffer => RENAME_BUFFER_CAP as u64,
        };
        Counters {
            occupancy: Structure::ALL.map(|s| OccupancyHist::new(cap(s))),
            ..Counters::default()
        }
    }

    /// Charge `n` cycles to `bucket` (one stepped cycle, or a
    /// fast-forward skip).
    #[inline]
    pub(crate) fn record_n(&mut self, bucket: CycleBucket, n: u64) {
        self.buckets[bucket.index()] += n;
    }

    /// Record `n` identical occupancy samples for `structure`.
    #[inline]
    pub(crate) fn observe_n(&mut self, structure: Structure, occ: u64, n: u64) {
        self.occupancy[structure.index()].observe_n(occ, n);
    }

    /// The count in one bucket.
    pub fn bucket(&self, b: CycleBucket) -> u64 {
        self.buckets[b.index()]
    }

    /// Sum of every exclusive bucket.
    pub fn attributed_cycles(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of the retire buckets.
    pub fn retire_cycles(&self) -> u64 {
        self.buckets[..CycleBucket::RETIRE_COUNT].iter().sum()
    }

    /// Sum of the stall buckets.
    pub fn stall_cycles(&self) -> u64 {
        self.buckets[CycleBucket::RETIRE_COUNT..].iter().sum()
    }

    /// The conservation identity: every cycle was attributed to exactly
    /// one bucket. Holds by construction for every completed run
    /// (including cycle-limit-aborted ones).
    pub fn conserves(&self) -> bool {
        self.cycles == self.attributed_cycles()
    }

    /// A bucket's share of total cycles, in `[0, 1]` (0 when empty).
    #[cfg(test)]
    fn share(&self, b: CycleBucket) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.bucket(b) as f64 / self.cycles as f64
    }

    /// The stall bucket with the most cycles (ties break toward the
    /// earlier variant, deterministically); `None` if no cycle stalled.
    #[cfg(test)]
    fn dominant_stall(&self) -> Option<CycleBucket> {
        CycleBucket::ALL[CycleBucket::RETIRE_COUNT..]
            .iter()
            .copied()
            .max_by_key(|b| (self.bucket(*b), std::cmp::Reverse(b.index())))
            .filter(|b| self.bucket(*b) > 0)
    }

    /// Fold another run's counters into this one — the multicore
    /// backend's aggregate row. Buckets, attributed cycles, and
    /// loop-buffer cycles add; occupancy histograms merge bin-wise with
    /// `peak` taking the max. If both sides satisfy
    /// [`Counters::conserves`], the merged counters do too (the
    /// aggregate attributes every core-cycle across all cores, so its
    /// `cycles` is the *sum* of per-core cycles, not the makespan).
    pub(crate) fn merge(&mut self, other: &Counters) {
        self.cycles += other.cycles;
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.loop_buffer_cycles += other.loop_buffer_cycles;
        for (h, o) in self.occupancy.iter_mut().zip(&other.occupancy) {
            debug_assert_eq!(
                h.capacity, o.capacity,
                "merging occupancy across heterogeneous capacities"
            );
            h.sum += o.sum;
            h.peak = h.peak.max(o.peak);
            h.full_cycles += o.full_cycles;
            for (b, ob) in h.bins.iter_mut().zip(&o.bins) {
                *b += ob;
            }
        }
    }

    /// CSV column names for [`Counters::values`], in order: the 20
    /// exclusive buckets, `loop_buffer_cycles`, then per structure
    /// `occ_<s>_{sum,peak,full,b0..b7}`.
    pub fn column_names() -> Vec<String> {
        let mut cols: Vec<String> = CycleBucket::ALL.iter().map(|b| b.name().into()).collect();
        cols.push("loop_buffer_cycles".into());
        for s in Structure::ALL {
            let n = s.name();
            cols.push(format!("occ_{n}_sum"));
            cols.push(format!("occ_{n}_peak"));
            cols.push(format!("occ_{n}_full"));
            for i in 0..OCC_BINS {
                cols.push(format!("occ_{n}_b{i}"));
            }
        }
        cols
    }

    /// Counter values in [`Counters::column_names`] order.
    pub fn values(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.buckets.to_vec();
        v.push(self.loop_buffer_cycles);
        for s in Structure::ALL {
            let h = &self.occupancy[s.index()];
            v.push(h.sum);
            v.push(h.peak);
            v.push(h.full_cycles);
            v.extend_from_slice(&h.bins);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_names_are_prefixed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for b in CycleBucket::ALL {
            let n = b.name();
            assert!(
                n.starts_with(if b.is_retire() { "retire_" } else { "stall_" }),
                "{n} misprefixed"
            );
            assert!(seen.insert(n), "duplicate bucket name {n}");
        }
    }

    #[test]
    fn indices_match_all_order() {
        for (i, b) in CycleBucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        for (i, s) in Structure::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn columns_and_values_align() {
        let c = Counters::new(&CoreParams::thunderx2());
        assert_eq!(Counters::column_names().len(), c.values().len());
    }

    #[test]
    fn conservation_and_sums() {
        let mut c = Counters::default();
        c.record_n(CycleBucket::RetireScalar, 1);
        c.record_n(CycleBucket::MemData, 1);
        c.record_n(CycleBucket::MemData, 1);
        c.cycles = 3;
        assert!(c.conserves());
        assert_eq!(c.retire_cycles(), 1);
        assert_eq!(c.stall_cycles(), 2);
        assert_eq!(c.dominant_stall(), Some(CycleBucket::MemData));
        assert!((c.share(CycleBucket::MemData) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_stall_none_when_all_retire() {
        let mut c = Counters::default();
        c.record_n(CycleBucket::RetireVector, 1);
        c.cycles = 1;
        assert_eq!(c.dominant_stall(), None);
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let mut bulk = OccupancyHist::new(8);
        let mut step = OccupancyHist::new(8);
        for (occ, n) in [(0u64, 3u64), (5, 7), (8, 2)] {
            bulk.observe_n(occ, n);
            for _ in 0..n {
                step.observe_n(occ, 1);
            }
        }
        assert_eq!(bulk, step);

        let mut c_bulk = Counters::default();
        let mut c_step = Counters::default();
        c_bulk.record_n(CycleBucket::MemData, 5);
        for _ in 0..5 {
            c_step.record_n(CycleBucket::MemData, 1);
        }
        assert_eq!(c_bulk.buckets, c_step.buckets);
    }

    #[test]
    fn merge_preserves_conservation_and_sums() {
        let mut a = Counters::default();
        a.record_n(CycleBucket::RetireScalar, 1);
        a.record_n(CycleBucket::MemData, 4);
        a.cycles = 5;
        a.loop_buffer_cycles = 2;
        a.occupancy[0].observe_n(3, 5);
        let mut b = Counters::default();
        b.record_n(CycleBucket::RetireVector, 7);
        b.cycles = 7;
        b.occupancy[0].observe_n(6, 7);
        assert!(a.conserves() && b.conserves());
        a.merge(&b);
        assert!(a.conserves());
        assert_eq!(a.cycles, 12);
        assert_eq!(a.bucket(CycleBucket::RetireVector), 7);
        assert_eq!(a.loop_buffer_cycles, 2);
        assert_eq!(a.occupancy[0].samples(), 12);
        assert_eq!(a.occupancy[0].peak, 6);
        assert_eq!(a.occupancy[0].sum, 3 * 5 + 6 * 7);
    }

    #[test]
    fn occupancy_histogram_bins_and_peak() {
        let mut h = OccupancyHist::new(8);
        for occ in [0u64, 3, 7, 8, 8] {
            h.observe_n(occ, 1);
        }
        assert_eq!(h.peak, 8);
        assert_eq!(h.full_cycles, 2);
        assert_eq!(h.samples(), 5);
        assert_eq!(h.bins[0], 1); // occ 0
        assert_eq!(h.bins[3], 1); // occ 3
        assert_eq!(h.bins[7], 3); // occ 7, 8, 8 (last bin includes capacity)
        assert!((h.mean() - 26.0 / 5.0).abs() < 1e-12);
    }
}

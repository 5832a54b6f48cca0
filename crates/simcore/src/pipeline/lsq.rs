//! The load/store queue's memory stage: in-order drain of committed
//! stores, then load issue past the store queue (blocked, forwarded or
//! sent to memory), all under one per-cycle request and bandwidth budget.
//!
//! A load's store hazard is decided by one store, found once at its
//! dispatch: the youngest store queued ahead of it that overlaps its
//! span. No older store can enter the SQ after the load (dispatch is in
//! order), that store's span and scatter bit never change, its data only
//! becomes ready, and the SQ drains from its front, so every later
//! verdict reads that one entry instead of walking the SQ.
//!
//! Stores are named by SQ ordinal: the number of entries pushed before
//! them. The SQ pops only from its front, so ordinal `k` sits at index
//! `k - sq_popped` while queued and has drained once `k < sq_popped`.

use super::{Pipeline, Stage};
use crate::params::{CoreParams, MIN_FORWARD_LATENCY};
use crate::regfile::Seq;
use armdse_isa::instr::{MemPattern, MemRef};
use armdse_memsim::{split_lines, Hierarchy};

/// The store-queue bounding box of an empty SQ: no load overlaps it.
pub(super) const EMPTY_SPAN: (u64, u64) = (u64::MAX, 0);

/// The line requests a memory access still has to issue: a load issues
/// its own from `PendingMem`, a store drains its own after commit.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct RequestPlan {
    next_addr: u64,
    /// Requests left to issue.
    pub(super) left: u16,
    /// Byte step between requests: the line width for contiguous
    /// accesses, the element stride for gathers and scatters.
    step: i64,
    /// Bandwidth debit per request.
    share: u32,
}

impl RequestPlan {
    pub(super) fn new(m: &MemRef, line_bytes: u32) -> RequestPlan {
        let (next_addr, left, step, share) = match m.pattern {
            MemPattern::Contiguous => {
                let lines = split_lines(m.addr, m.bytes, line_bytes).count() as u16;
                (
                    m.addr & !(u64::from(line_bytes) - 1),
                    lines,
                    i64::from(line_bytes),
                    m.bytes.div_ceil(u32::from(lines)),
                )
            }
            // One request per element: the defining gather/scatter cost.
            MemPattern::Strided {
                elem_bytes,
                stride,
                count,
            } => (m.addr, count as u16, stride, elem_bytes),
        };
        RequestPlan {
            next_addr,
            left,
            step,
            share,
        }
    }

    /// Issue requests in order while `budget` allows; returns the latest
    /// completion among them (0 when none was issued).
    // `always`: with `Hierarchy::access` inlined into it, plain
    // `#[inline]` leaves this out of `drive_to`, which measured slower on
    // the benchmark's `paper_grid`.
    #[inline(always)]
    fn issue(
        &mut self,
        write: bool,
        budget: &mut MemBudget,
        mem: &mut Hierarchy,
        line: u64,
        now: u64,
    ) -> u64 {
        let mut complete = 0;
        while self.left > 0 && budget.debit(write, self.share) {
            #[cfg(feature = "check-invariants")]
            budget.count_sent(write, self.share);
            complete = complete.max(mem.access(self.next_addr & !(line - 1), write, now));
            self.next_addr = (self.next_addr as i64 + self.step) as u64;
            self.left -= 1;
        }
        complete
    }
}

/// What one cycle may still spend on memory requests: line requests in
/// total, then requests and bytes per direction (`[loads, stores]`).
pub(super) struct MemBudget {
    reqs: u32,
    dir_reqs: [u32; 2],
    dir_bytes: [u32; 2],
    /// Double entry for the `check-invariants` lane: what the cycle
    /// actually sent, counted at each access apart from the debits.
    #[cfg(feature = "check-invariants")]
    pub(super) sent: (u32, [u32; 2], [u32; 2]),
}

impl MemBudget {
    fn new(p: &CoreParams) -> MemBudget {
        MemBudget {
            reqs: p.mem_requests_per_cycle,
            dir_reqs: [p.loads_per_cycle, p.stores_per_cycle],
            dir_bytes: [p.load_bandwidth, p.store_bandwidth],
            #[cfg(feature = "check-invariants")]
            sent: (0, [0; 2], [0; 2]),
        }
    }

    /// Whether a request in this direction still fits, bytes aside.
    #[inline]
    fn has_request(&self, write: bool) -> bool {
        self.reqs > 0 && self.dir_reqs[usize::from(write)] > 0
    }

    /// Debit one request of `share` bytes, or nothing if any budget is
    /// short.
    #[inline]
    fn debit(&mut self, write: bool, share: u32) -> bool {
        let d = usize::from(write);
        if !self.has_request(write) || self.dir_bytes[d] < share {
            return false;
        }
        self.reqs -= 1;
        self.dir_reqs[d] -= 1;
        self.dir_bytes[d] -= share;
        true
    }

    #[cfg(feature = "check-invariants")]
    fn count_sent(&mut self, write: bool, share: u32) {
        let d = usize::from(write);
        self.sent.0 += 1;
        self.sent.1[d] += 1;
        self.sent.2[d] += share;
    }
}

/// A store-queue entry (lives from dispatch until drained to memory).
#[derive(Debug, Clone, Copy)]
pub(super) struct SqEntry {
    pub(super) seq: Seq,
    /// Base address and the span of bytes the store may touch.
    pub(super) span_lo: u64,
    pub(super) span_hi: u64,
    /// Whether the store is a scatter (no forwarding from scatters).
    scattered: bool,
    /// Store executed: address and data known (forwarding possible).
    pub(super) data_ready: bool,
    /// Store committed: eligible to drain.
    pub(super) committed: bool,
    plan: RequestPlan,
}

impl SqEntry {
    fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.span_lo < hi && lo < self.span_hi
    }

    fn covers(&self, lo: u64, hi: u64) -> bool {
        !self.scattered && self.span_lo <= lo && self.span_hi >= hi
    }
}

/// Byte span `[lo, hi)` an access may touch.
fn span_of(m: &MemRef) -> (u64, u64) {
    match m.pattern {
        MemPattern::Contiguous => (m.addr, m.addr + u64::from(m.bytes)),
        MemPattern::Strided {
            elem_bytes,
            stride,
            count,
        } => {
            let last = m.addr as i64 + stride * (i64::from(count) - 1);
            let lo = (m.addr as i64).min(last).max(0) as u64;
            let hi = (m.addr as i64).max(last) as u64 + u64::from(elem_bytes);
            (lo, hi)
        }
    }
}

/// Store-hazard classification for a load about to access memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StoreHazard {
    /// No older overlapping store: go to memory.
    Clear,
    /// Youngest older overlapping store fully covers the load and its data
    /// is ready: forward from the store queue.
    Forward,
    /// Overlapping store with unknown data or partial overlap: wait.
    Blocked,
}

impl Pipeline<'_> {
    /// Whether the SQ front may drain: committed, with its data known.
    #[inline]
    pub(super) fn store_drainable(&self) -> bool {
        self.sq.front().is_some_and(|f| f.committed && f.data_ready)
    }

    /// Whether the memory stage has nothing to do this cycle: no store may
    /// drain and every pending load is parked on its store (`Blocked`),
    /// so none sends a request. A parked load's verdict changes only when
    /// its store gets its data (a writeback event) or drains (which needs
    /// `store_drainable`), so the predicate is stable across a skip.
    #[inline]
    pub(super) fn lsq_idle(&self) -> bool {
        !self.store_drainable()
            && self
                .pending_loads
                .iter()
                .all(|&seq| self.store_hazard(seq) == StoreHazard::Blocked)
    }

    /// Allocate store `seq`'s SQ entry at dispatch and grow the SQ
    /// bounding box over its span. Returns the store's ordinal.
    #[inline]
    pub(super) fn sq_push(&mut self, seq: Seq, m: &MemRef) -> u64 {
        let (span_lo, span_hi) = span_of(m);
        self.sq_span = (self.sq_span.0.min(span_lo), self.sq_span.1.max(span_hi));
        self.sq.push_back(SqEntry {
            seq,
            span_lo,
            span_hi,
            scattered: !matches!(m.pattern, MemPattern::Contiguous),
            data_ready: false,
            committed: false,
            plan: RequestPlan::new(m, self.mem.line_bytes()),
        });
        self.sq_popped + self.sq.len() as u64 - 1
    }

    /// Allocate load `seq`'s LQ slot at dispatch and remember the
    /// ordinal of the youngest queued store that overlaps its span
    /// (every queued store is older). A span that misses the SQ bounding
    /// box skips the walk.
    #[inline]
    pub(super) fn lq_push(&mut self, seq: Seq, m: &MemRef) {
        self.lq_count += 1;
        let (lo, hi) = span_of(m);
        let in_box = lo < self.sq_span.1 && self.sq_span.0 < hi;
        let hazard = if in_box {
            self.sq.iter().rposition(|e| e.overlaps(lo, hi))
        } else {
            None
        };
        self.uop_mut(seq).sq_ord = hazard.map(|i| self.sq_popped + i as u64);
    }

    /// Load `seq`'s store hazard this cycle, read from its remembered
    /// store by ordinal. Once that store has drained, every older one
    /// has too: the load is clear.
    #[inline]
    pub(super) fn store_hazard(&self, seq: Seq) -> StoreHazard {
        let u = self.uop(seq);
        let Some(i) = u.sq_ord.and_then(|ord| ord.checked_sub(self.sq_popped)) else {
            return StoreHazard::Clear;
        };
        let m = u.mem.expect("load has mem");
        let (lo, hi) = span_of(&m);
        // Gathers never forward: their elements cannot all come from one
        // store's data.
        let e = &self.sq[i as usize];
        if matches!(m.pattern, MemPattern::Contiguous) && e.data_ready && e.covers(lo, hi) {
            StoreHazard::Forward
        } else {
            StoreHazard::Blocked
        }
    }

    #[inline]
    pub(super) fn lsq_memory(&mut self) {
        self.mem_budget_exhausted = false;
        let line = u64::from(self.mem.line_bytes());
        let now = self.now;
        let mut budget = MemBudget::new(&self.params);

        // In-order drain of committed stores. The completion time of a
        // write is not load-bearing for the pipeline (no coherence).
        while self.store_drainable() {
            let front = self.sq.front_mut().expect("drainable");
            front
                .plan
                .issue(true, &mut budget, &mut self.mem, line, now);
            if front.plan.left > 0 {
                break; // budget exhausted
            }
            self.sq.pop_front();
            self.sq_popped += 1;
            if self.sq.is_empty() {
                self.sq_span = EMPTY_SPAN;
            }
        }

        // Load issue (program order across pending loads, but younger
        // loads may proceed past a blocked older one — our model permits
        // this because forwarding correctness is enforced per-load).
        // Loads that go leave the list; the rest keep their order.
        let mut i = 0;
        while let Some(&seq) = self.pending_loads.get(i) {
            if !budget.has_request(false) {
                self.mem_budget_exhausted = true;
                break;
            }
            match self.store_hazard(seq) {
                StoreHazard::Blocked => {
                    i += 1;
                    continue;
                }
                StoreHazard::Forward => {
                    let complete = now + self.mem.l1_hit_latency().max(MIN_FORWARD_LATENCY);
                    let u = self.uop_mut(seq);
                    u.mem_complete = complete;
                    u.stage = Stage::MemWait;
                    self.done.push(complete, seq);
                    self.pending_loads.remove(i);
                    continue;
                }
                StoreHazard::Clear => {}
            }
            let u = &mut self.window[seq];
            let had = u.plan.left;
            let complete = u.plan.issue(false, &mut budget, &mut self.mem, line, now);
            u.mem_complete = u.mem_complete.max(complete);
            if u.plan.left > 0 {
                self.mem_budget_exhausted = true;
                i += 1;
            } else {
                u.stage = Stage::MemWait;
                // A zero-request access cannot happen (bytes >= 1); it
                // would complete next cycle.
                let t = if had > 0 { u.mem_complete } else { now + 1 };
                self.done.push(t, seq);
                self.pending_loads.remove(i);
            }
        }

        #[cfg(feature = "check-invariants")]
        self.check_mem_budget(&budget);
    }

    /// The reference classifier `store_hazard` must agree with: a walk of
    /// every older store, the youngest overlapping one deciding.
    #[cfg(any(test, feature = "check-invariants"))]
    pub(super) fn classify_against_stores(&self, seq: Seq, mref: &MemRef) -> StoreHazard {
        let (lo, hi) = span_of(mref);
        if !(lo < self.sq_span.1 && self.sq_span.0 < hi) {
            return StoreHazard::Clear;
        }
        let load_is_gather = !matches!(mref.pattern, MemPattern::Contiguous);
        let mut decision = StoreHazard::Clear;
        for e in self.sq.iter() {
            if e.seq >= seq {
                break;
            }
            if e.overlaps(lo, hi) {
                decision = if !load_is_gather && e.data_ready && e.covers(lo, hi) {
                    StoreHazard::Forward
                } else {
                    StoreHazard::Blocked
                };
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{access, machine};
    use super::*;
    use armdse_isa::instr::MemKind;
    use armdse_isa::op::OpClass;

    fn gather(addr: u64, stride: i64, count: u32) -> MemRef {
        MemRef {
            addr,
            bytes: 8 * count,
            kind: MemKind::Load,
            pattern: MemPattern::Strided {
                elem_bytes: 8,
                stride,
                count,
            },
        }
    }

    #[test]
    fn a_contiguous_access_across_a_line_boundary_plans_two_requests() {
        let plan = RequestPlan::new(&access(MemKind::Load, 60, 8), 64);
        assert_eq!(
            (plan.next_addr, plan.left, plan.step, plan.share),
            (0, 2, 64, 4)
        );
        let inside = RequestPlan::new(&access(MemKind::Load, 64, 64), 64);
        assert_eq!((inside.left, inside.share), (1, 64));
    }

    #[test]
    fn a_gather_plans_one_request_per_element() {
        let plan = RequestPlan::new(&gather(0x1000, 256, 4), 64);
        assert_eq!(
            (plan.next_addr, plan.left, plan.step, plan.share),
            (0x1000, 4, 256, 8)
        );
    }

    /// A machine with a dispatched 16-byte store at 0x100 (data ready or
    /// not) and a younger load waiting to issue.
    fn store_then_load(data_ready: bool) -> (Pipeline<'static>, Seq) {
        let mut p = machine(0);
        let stage = if data_ready {
            Stage::Done
        } else {
            Stage::Issued
        };
        p.place(
            OpClass::Store,
            stage,
            Some(access(MemKind::Store, 0x100, 16)),
        );
        let load = p.place(
            OpClass::Load,
            Stage::PendingMem,
            Some(access(MemKind::Load, 0x108, 8)),
        );
        (p, load)
    }

    #[test]
    fn a_covering_ready_store_forwards() {
        let (p, load) = store_then_load(true);
        let m = access(MemKind::Load, 0x108, 8);
        assert_eq!(p.classify_against_stores(load, &m), StoreHazard::Forward);
        assert_eq!(p.store_hazard(load), StoreHazard::Forward);
    }

    #[test]
    fn an_unready_or_partial_store_blocks() {
        let (p, load) = store_then_load(false);
        let m = access(MemKind::Load, 0x108, 8);
        assert_eq!(p.classify_against_stores(load, &m), StoreHazard::Blocked);
        assert_eq!(p.store_hazard(load), StoreHazard::Blocked);
        let (p, load) = store_then_load(true);
        let straddles = access(MemKind::Load, 0x10c, 8);
        assert_eq!(
            p.classify_against_stores(load, &straddles),
            StoreHazard::Blocked
        );
    }

    #[test]
    fn a_gather_over_a_ready_covering_store_blocks() {
        let (p, load) = store_then_load(true);
        assert_eq!(
            p.classify_against_stores(load, &gather(0x100, 8, 2)),
            StoreHazard::Blocked
        );
    }

    #[test]
    fn a_load_outside_the_sq_box_or_older_than_the_store_is_clear() {
        let (p, load) = store_then_load(false);
        assert_eq!(p.sq_span, (0x100, 0x110));
        let elsewhere = access(MemKind::Load, 0x110, 8);
        assert_eq!(
            p.classify_against_stores(load, &elsewhere),
            StoreHazard::Clear
        );
        // Only older stores count: seq 0 is the store itself.
        let m = access(MemKind::Load, 0x108, 8);
        assert_eq!(p.classify_against_stores(0, &m), StoreHazard::Clear);
    }

    #[test]
    fn a_load_is_clear_once_its_remembered_store_drains() {
        // Two committed stores overlap the load and one drains per cycle.
        // The younger one only straddles it, so it blocks the load until
        // it drains, although the older one covers the load with its
        // data ready (and drains first).
        let mut p = machine(0);
        p.params.stores_per_cycle = 1;
        p.place(
            OpClass::Store,
            Stage::Done,
            Some(access(MemKind::Store, 0x100, 16)),
        );
        p.place(
            OpClass::Store,
            Stage::Done,
            Some(access(MemKind::Store, 0x10c, 8)),
        );
        let m = access(MemKind::Load, 0x108, 8);
        let load = p.place(OpClass::Load, Stage::PendingMem, Some(m));
        p.pending_loads.push_back(load);
        p.commit();
        assert_eq!(p.store_hazard(load), StoreHazard::Blocked);
        p.lsq_memory();
        assert_eq!((p.sq.len(), p.mem.stats().requests), (1, 1));
        assert_eq!(p.pending_loads, [load], "parked on the younger store");
        assert_eq!(p.store_hazard(load), p.classify_against_stores(load, &m));
        p.lsq_memory();
        assert!(p.sq.is_empty() && p.pending_loads.is_empty());
        assert_eq!(p.uop(load).stage, Stage::MemWait);
        assert_eq!(p.mem.stats().requests, 3, "the load went to memory");
    }

    #[test]
    fn stores_are_found_by_ordinal_after_drains() {
        // Three stores drain; the fourth, ordinal 3, is then the SQ's
        // front. A load behind it names it, blocks on it, forwards once
        // its data is written back, and reads clear once it drains, its
        // ordinal then below the drained count.
        let mut p = machine(0);
        for i in 0..3 {
            let m = access(MemKind::Store, 0x1000 * i, 8);
            p.place(OpClass::Store, Stage::Done, Some(m));
        }
        p.commit();
        for _ in 0..3 {
            p.lsq_memory(); // one store request per cycle
        }
        assert_eq!((p.sq.len(), p.sq_popped), (0, 3));
        let store = p.place(
            OpClass::Store,
            Stage::Issued,
            Some(access(MemKind::Store, 0x100, 16)),
        );
        let load = p.place(
            OpClass::Load,
            Stage::PendingMem,
            Some(access(MemKind::Load, 0x108, 8)),
        );
        assert_eq!(
            (p.uop(store).sq_ord, p.uop(load).sq_ord),
            (Some(3), Some(3))
        );
        assert_eq!(p.store_hazard(load), StoreHazard::Blocked);
        p.done.push(p.now + 1, store);
        p.now += 1;
        p.writeback();
        assert!(p.sq[0].data_ready, "found by ordinal after three drains");
        assert_eq!(p.store_hazard(load), StoreHazard::Forward);
        p.commit();
        p.lsq_memory();
        assert_eq!((p.sq.len(), p.sq_popped), (0, 4));
        let m = access(MemKind::Load, 0x108, 8);
        assert_eq!(p.store_hazard(load), StoreHazard::Clear);
        assert_eq!(p.classify_against_stores(load, &m), StoreHazard::Clear);
    }

    #[test]
    fn a_forwarded_load_skips_memory() {
        let (mut p, load) = store_then_load(true);
        p.pending_loads.push_back(load);
        p.lsq_memory();
        assert_eq!(p.uop(load).stage, Stage::MemWait);
        assert_eq!(p.mem.stats().requests, 0);
        assert!(p.pending_loads.is_empty());
    }

    #[test]
    fn a_committed_store_drains_within_the_per_cycle_budget() {
        // A 256-byte store is four line requests; one store request per
        // cycle drains it over four cycles, then pops it and resets the box.
        let mut p = machine(0);
        p.params.store_bandwidth = 256;
        p.params.stores_per_cycle = 1;
        p.place(
            OpClass::VecStore,
            Stage::Done,
            Some(access(MemKind::Store, 0x1000, 256)),
        );
        assert!(!p.store_drainable(), "not committed yet");
        p.commit();
        assert!(p.store_drainable() && !p.lsq_idle());
        for left in [3, 2, 1] {
            p.lsq_memory();
            assert_eq!(p.sq.front().map(|e| e.plan.left), Some(left));
        }
        p.lsq_memory();
        assert!(p.sq.is_empty() && p.lsq_idle());
        assert_eq!(p.sq_span, EMPTY_SPAN);
        assert_eq!(p.mem.stats().requests, 4);
    }

    #[test]
    fn a_load_cut_short_by_the_budget_stays_pending_and_says_so() {
        // A two-line load with one load request per cycle.
        let mut p = machine(0);
        p.params.loads_per_cycle = 1;
        let load = p.place(
            OpClass::Load,
            Stage::PendingMem,
            Some(access(MemKind::Load, 60, 8)),
        );
        p.pending_loads.push_back(load);
        p.lsq_memory();
        assert!(p.mem_budget_exhausted);
        assert_eq!(p.pending_loads, [load]);
        assert_eq!(p.uop(load).plan.left, 1);
        p.now += 1;
        p.lsq_memory();
        assert!(!p.mem_budget_exhausted);
        assert_eq!(p.uop(load).stage, Stage::MemWait);
        assert!(p.pending_loads.is_empty());
    }
}

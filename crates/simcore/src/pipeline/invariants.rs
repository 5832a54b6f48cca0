//! Cycle-level structural invariants, compiled in only with the
//! `check-invariants` feature. Any violation panics, so a completed run
//! certifies zero violations.

use super::lsq::MemBudget;
use super::{Pipeline, Stage, Uop};
use crate::params::{FETCH_QUEUE_CAP, RENAME_BUFFER_CAP, RS_SIZE};
use crate::regfile::Seq;
use armdse_isa::reg::RegClass;

impl Pipeline<'_> {
    /// Checked at the end of every stepped cycle and fast-forward jump.
    #[inline(never)]
    pub(super) fn check_invariants(&self) {
        let p = &self.params;
        let now = self.now;

        // Capacity bounds on every queue and buffer.
        for (what, held, cap) in [
            ("ROB", self.rob_count as usize, p.rob_size as usize),
            ("RS", self.rs_count as usize, RS_SIZE),
            ("load queue", self.lq_count as usize, p.load_queue as usize),
            ("store queue", self.sq.len(), p.store_queue as usize),
            ("rename buffer", self.rename_q.len(), RENAME_BUFFER_CAP),
            ("fetch queue", self.fetch_q.len(), FETCH_QUEUE_CAP),
        ] {
            assert!(
                held <= cap,
                "cycle {now}: {what} holds {held}, capacity {cap}"
            );
        }

        // The RS occupancy and ready counters that gate dispatch, issue,
        // and fast-forward legality must agree with a full window scan,
        // and each per-class ready queue must hold exactly the ready
        // RS-resident uops of that class, in age order.
        let in_window = |f: fn(&Uop) -> bool| self.window.iter().filter(|u| f(u)).count() as u32;
        assert_eq!(
            in_window(|u| u.stage == Stage::InRs),
            self.rs_count,
            "cycle {now}: rs_count out of sync with window InRs population"
        );
        assert_eq!(
            in_window(|u| u.stage == Stage::InRs && u.srcs_remaining == 0),
            self.rs_ready,
            "cycle {now}: rs_ready counter out of sync with window contents"
        );
        let queued: u32 = self.ready_q.iter().map(|q| q.len() as u32).sum();
        assert_eq!(
            queued, self.rs_ready,
            "cycle {now}: ready queues out of sync with rs_ready"
        );
        for (ci, q) in self.ready_q.iter().enumerate() {
            let mut prev = None;
            for &s in q {
                assert!(
                    prev.is_none_or(|p| p < s),
                    "cycle {now}: ready queue {ci} out of age order"
                );
                prev = Some(s);
                let u = self.uop(s);
                assert!(
                    u.stage == Stage::InRs && u.srcs_remaining == 0 && u.op.port().index() == ci,
                    "cycle {now}: ready queue {ci} holds unready/misfiled uop {s}"
                );
            }
        }

        // In-order commit: the ROB pops only from the front, so the number
        // of retired instructions must equal the oldest in-flight sequence
        // number. Any out-of-order commit breaks this equality.
        assert_eq!(
            self.stats.retired, self.window_base,
            "cycle {now}: retired count diverged from the commit frontier"
        );

        // The load-queue counter must agree with the dispatched, not yet
        // committed loads actually present in the window.
        assert_eq!(
            in_window(|u| u.op.is_load() && u.stage != Stage::Renamed),
            self.lq_count,
            "cycle {now}: load-queue counter out of sync with window"
        );

        // Store queue: program order, committed entries form a prefix, and
        // committed exactly matches "older than the commit frontier". The
        // uncommitted entries must be the dispatched stores in the window.
        let mut prev: Option<Seq> = None;
        let mut seen_uncommitted = false;
        for e in &self.sq {
            assert!(
                prev.is_none_or(|ps| e.seq > ps),
                "cycle {now}: store queue out of program order ({} after {prev:?})",
                e.seq
            );
            prev = Some(e.seq);
            if e.committed {
                assert!(
                    !seen_uncommitted,
                    "cycle {now}: committed store {} behind an uncommitted one",
                    e.seq
                );
                assert!(
                    e.seq < self.window_base,
                    "cycle {now}: store {} committed ahead of the ROB frontier {}",
                    e.seq,
                    self.window_base
                );
                assert!(
                    e.data_ready,
                    "cycle {now}: store {} committed without its data",
                    e.seq
                );
            } else {
                seen_uncommitted = true;
                assert!(
                    e.seq >= self.window_base,
                    "cycle {now}: uncommitted store {} already retired",
                    e.seq
                );
            }
            // The store-span bounding box must cover every resident entry
            // (it may over-cover: pops leave it stale until the SQ empties).
            assert!(
                self.sq_span.0 <= e.span_lo && e.span_hi <= self.sq_span.1,
                "cycle {now}: store {} span outside the SQ bounding box",
                e.seq
            );
        }
        let sq_uncommitted = self.sq.iter().filter(|e| !e.committed).count() as u32;
        assert_eq!(
            in_window(|u| u.op.is_store() && u.stage != Stage::Renamed),
            sq_uncommitted,
            "cycle {now}: store-queue entries out of sync with window"
        );

        // Physical-register free-list conservation: mapped + free + in
        // flight (renamed, not yet committed) must cover every physical
        // register exactly once, and freed registers must be clean.
        let mut in_flight = [0usize; 4];
        for u in &self.window {
            for d in &u.dests[..u.ndests as usize] {
                in_flight[d.class.index()] += 1;
            }
        }
        for class in RegClass::ALL {
            assert!(
                self.rename
                    .check_conservation(class, in_flight[class.index()]),
                "cycle {now}: {class:?} free list leaked or duplicated a register"
            );
            assert!(
                self.rename.check_free_ready(class),
                "cycle {now}: {class:?} free list holds a busy register"
            );
        }
    }

    /// The memory stage's double entry: what one cycle sent, counted at
    /// each access, against the configured per-cycle limits.
    #[inline(never)]
    pub(super) fn check_mem_budget(&self, budget: &MemBudget) {
        let p = &self.params;
        let (reqs, [loads, stores], [load_bytes, store_bytes]) = budget.sent;
        for (what, sent, limit) in [
            ("memory requests issued", reqs, p.mem_requests_per_cycle),
            ("load requests issued", loads, p.loads_per_cycle),
            ("store requests issued", stores, p.stores_per_cycle),
            ("load bytes requested", load_bytes, p.load_bandwidth),
            ("store bytes requested", store_bytes, p.store_bandwidth),
        ] {
            assert!(
                sent <= limit,
                "cycle {}: {sent} {what}, limit {limit}",
                self.now
            );
        }
    }
}

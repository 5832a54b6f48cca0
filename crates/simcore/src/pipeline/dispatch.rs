//! Dispatch (rename buffer → reservation station, ROB and LSQ, up to
//! [`DISPATCH_RATE`] per cycle) and issue (ready RS entries → free
//! ports of their class, oldest first).

use super::{Pipeline, Stage, Uop};
use crate::counters::CycleBucket;
use crate::params::{DISPATCH_RATE, RS_SIZE};
use crate::regfile::Seq;
use crate::stats::StallStats;
use armdse_isa::op::{OpClass, PortClass};

/// The full structure that keeps the rename buffer's front uop from
/// dispatching, first match in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DispatchBlock {
    Rob,
    Rs,
    Lq,
    Sq,
}

impl DispatchBlock {
    /// The stall counter a blocked cycle charges.
    pub(super) fn stall(self, s: &mut StallStats) -> &mut u64 {
        match self {
            DispatchBlock::Rob => &mut s.rob_full,
            DispatchBlock::Rs => &mut s.rs_full,
            DispatchBlock::Lq => &mut s.lq_full,
            DispatchBlock::Sq => &mut s.sq_full,
        }
    }

    /// The bucket of a cycle whose oldest uop waits on this block.
    pub(super) fn bucket(self) -> CycleBucket {
        match self {
            DispatchBlock::Rob => CycleBucket::RobFull,
            DispatchBlock::Rs => CycleBucket::RsFull,
            DispatchBlock::Lq => CycleBucket::LqFull,
            DispatchBlock::Sq => CycleBucket::SqFull,
        }
    }
}

impl Pipeline<'_> {
    /// Why a uop of class `op` at the rename buffer's front cannot
    /// dispatch this cycle (`None`: it can).
    #[inline]
    pub(super) fn dispatch_block(&self, op: OpClass) -> Option<DispatchBlock> {
        if self.rob_count >= self.params.rob_size {
            Some(DispatchBlock::Rob)
        } else if self.rs_count as usize >= RS_SIZE {
            Some(DispatchBlock::Rs)
        } else if op.is_load() && self.lq_count >= self.params.load_queue {
            Some(DispatchBlock::Lq)
        } else if op.is_store() && self.sq.len() as u32 >= self.params.store_queue {
            Some(DispatchBlock::Sq)
        } else {
            None
        }
    }

    #[inline]
    pub(super) fn dispatch(&mut self) {
        for _ in 0..DISPATCH_RATE {
            let Some(&seq) = self.rename_q.front() else {
                break;
            };
            let &Uop { op, mem, .. } = self.uop(seq);
            if let Some(block) = self.dispatch_block(op) {
                *block.stall(&mut self.stats.stalls) += 1;
                break;
            }
            self.rename_q.pop_front();
            self.rob_count += 1;
            self.rs_count += 1;
            let u = self.uop_mut(seq);
            u.stage = Stage::InRs;
            if u.srcs_remaining == 0 {
                self.push_ready(op.port(), seq);
            }
            if op.is_load() {
                self.lq_count += 1;
            }
            if op.is_store() {
                self.sq_push(seq, &mem.expect("store has mem"));
            }
        }
    }

    /// Insert a newly ready RS entry into its class queue, keeping the
    /// queue in age (sequence) order. Dispatch appends monotonically;
    /// wakeups may arrive out of order and take the binary-search path.
    #[inline]
    pub(super) fn push_ready(&mut self, class: PortClass, seq: Seq) {
        let q = &mut self.ready_q[class.index()];
        if q.back().is_none_or(|&b| b < seq) {
            q.push_back(seq);
        } else {
            let i = q.partition_point(|&s| s < seq);
            q.insert(i, seq);
        }
        self.rs_ready += 1;
    }

    /// Whether issue has a candidate this cycle: some RS entry has all
    /// its sources (whether a port is free is found by trying).
    #[inline]
    pub(super) fn issue_ready(&self) -> bool {
        self.rs_ready != 0
    }

    #[inline]
    pub(super) fn issue(&mut self) {
        // O(1) early-out: no port scan can issue anything this cycle.
        if !self.issue_ready() {
            return;
        }
        let now = self.now;
        // Per class: pop ready uops in age order while ports are free.
        // Classes contend only within themselves (a uop needs a port of
        // its own class and nothing else), so this issues the same uops
        // to the same ports as an oldest-first scan of the whole RS —
        // without ever touching the ready uops that miss out on a port.
        for ci in 0..self.ready_q.len() {
            while let Some(&seq) = self.ready_q[ci].front() {
                let Some(pi) = self.port_busy[ci].iter().position(|b| *b <= now) else {
                    break;
                };
                self.ready_q[ci].pop_front();
                let op = self.uop(seq).op;
                let lat = u64::from(op.exec_latency());
                let occupancy = if op.pipelined() { 1 } else { lat };
                self.port_busy[ci][pi] = now + occupancy;
                self.done.push(now + lat, seq);
                self.uop_mut(seq).stage = Stage::Issued;
                self.rs_ready -= 1;
                self.rs_count -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{access, machine};
    use super::*;
    use armdse_isa::instr::MemKind;

    #[test]
    fn dispatch_moves_up_to_the_dispatch_rate_into_the_rs() {
        let mut p = machine(0);
        for _ in 0..6 {
            p.place(OpClass::IntAlu, Stage::Renamed, None);
        }
        p.dispatch();
        assert_eq!(p.rename_q.len(), 6 - DISPATCH_RATE);
        assert_eq!((p.rob_count, p.rs_count), (4, 4));
        assert_eq!(p.rs_ready, 4, "no outstanding sources: ready at once");
    }

    #[test]
    fn dispatch_blocks_in_rob_rs_lq_sq_order_and_charges_the_first() {
        let mut p = machine(0);
        let load = p.place(
            OpClass::Load,
            Stage::Renamed,
            Some(access(MemKind::Load, 0, 8)),
        );
        let op = p.uop(load).op;
        assert_eq!(p.dispatch_block(op), None);
        p.lq_count = p.params.load_queue;
        assert_eq!(p.dispatch_block(op), Some(DispatchBlock::Lq));
        assert_eq!(
            p.dispatch_block(OpClass::Store),
            None,
            "a store needs no LQ entry"
        );
        p.rs_count = RS_SIZE as u32;
        assert_eq!(p.dispatch_block(op), Some(DispatchBlock::Rs));
        p.rob_count = p.params.rob_size;
        assert_eq!(p.dispatch_block(op), Some(DispatchBlock::Rob));

        p.dispatch();
        assert_eq!(p.rename_q.len(), 1, "nothing dispatched");
        let s = p.stats.stalls;
        assert_eq!((s.rob_full, s.rs_full, s.lq_full), (1, 0, 0));
    }

    #[test]
    fn a_full_store_queue_blocks_only_stores() {
        let mut p = machine(0);
        p.params.store_queue = 1;
        p.place(
            OpClass::Store,
            Stage::Issued,
            Some(access(MemKind::Store, 0, 8)),
        );
        assert_eq!(p.dispatch_block(OpClass::Store), Some(DispatchBlock::Sq));
        assert_eq!(p.dispatch_block(OpClass::Load), None);
    }

    #[test]
    fn issue_fills_free_ports_oldest_first_and_leaves_the_rest_ready() {
        // Four ready scalar uops over three scalar ports.
        let mut p = machine(0);
        let seqs: Vec<Seq> = (0..4)
            .map(|_| p.place(OpClass::IntAlu, Stage::InRs, None))
            .collect();
        assert!(p.issue_ready());
        p.issue();
        let issued: Vec<Stage> = seqs.iter().map(|&s| p.uop(s).stage).collect();
        assert_eq!(
            issued,
            [Stage::Issued, Stage::Issued, Stage::Issued, Stage::InRs]
        );
        assert_eq!((p.rs_ready, p.rs_count), (1, 1));
        assert_eq!(p.done.next_time(), Some(1), "one-cycle ALU latency");
    }
}

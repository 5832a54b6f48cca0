//! Commit: in-order retirement of finished uops from the reorder buffer,
//! up to the commit width per cycle.

use super::lsq::store_entry;
use super::{Pipeline, Stage};
use crate::regfile::Seq;
use armdse_isa::op::OpClass;

impl Pipeline<'_> {
    /// Whether commit retires anything this cycle: the oldest uop is done.
    #[inline]
    pub(super) fn commit_ready(&self) -> bool {
        self.window.front().is_some_and(|u| u.stage == Stage::Done)
    }

    /// Retire up to `commit_width` finished uops from the window front.
    /// Returns the retire count and the oldest retired uop's class (the
    /// inputs of the cycle-attribution pass).
    #[inline]
    pub(super) fn commit(&mut self) -> (u32, Option<OpClass>) {
        if !self.commit_ready() {
            return (0, None);
        }
        // Batch commit: size the ready prefix of the ROB first, then
        // drain it in one pass (one VecDeque ring adjustment instead of
        // commit_width front/pop pairs).
        let retiring = self
            .window
            .iter()
            .take(self.params.commit_width as usize)
            .take_while(|u| u.stage == Stage::Done)
            .count();
        let base = self.window_base;
        let mut first_op = None;
        for (i, u) in self.window.drain(..retiring).enumerate() {
            let seq = base + i as Seq;
            for d in &u.dests[..u.ndests as usize] {
                self.rename.free_prev(*d);
            }
            if u.op.is_load() {
                self.lq_count -= 1;
            }
            if u.op.is_store() {
                if let Some(e) = store_entry(&mut self.sq, seq) {
                    e.committed = true;
                }
            }
            if let Some(log) = &mut self.log {
                log.retired();
            }
            self.stats.observed.record(
                u.op,
                u.mem.map_or(0, |m| u64::from(m.bytes)),
                u.mem.map(|m| m.kind),
            );
            first_op.get_or_insert(u.op);
        }
        self.window_base += retiring as Seq;
        self.rob_count -= retiring as u32;
        self.stats.retired += retiring as u64;
        (retiring as u32, first_op)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{access, machine};
    use super::*;
    use armdse_isa::instr::MemKind;

    #[test]
    fn commit_stops_at_the_commit_width() {
        let mut p = machine(0);
        p.params.commit_width = 2;
        for _ in 0..3 {
            p.place(OpClass::IntAlu, Stage::Done, None);
        }
        assert_eq!(p.commit(), (2, Some(OpClass::IntAlu)));
        assert_eq!((p.window.len(), p.window_base, p.rob_count), (1, 2, 1));
        assert_eq!(p.stats.retired, 2);
    }

    #[test]
    fn commit_stops_at_the_first_uop_that_is_not_done() {
        let mut p = machine(0);
        let load = access(MemKind::Load, 0, 8);
        p.place(OpClass::Load, Stage::Done, Some(load));
        p.place(OpClass::IntAlu, Stage::Issued, None);
        p.place(OpClass::IntAlu, Stage::Done, None);
        assert_eq!(p.commit(), (1, Some(OpClass::Load)));
        assert_eq!(p.lq_count, 0, "the load left the load queue");
        assert!(!p.commit_ready());
        assert_eq!(p.commit(), (0, None));
        assert_eq!(p.window.len(), 2);
    }

    #[test]
    fn a_retired_store_stays_queued_as_committed() {
        let mut p = machine(0);
        p.place(
            OpClass::Store,
            Stage::Done,
            Some(access(MemKind::Store, 0, 8)),
        );
        assert_eq!(p.commit(), (1, Some(OpClass::Store)));
        assert!(p.window.is_empty());
        assert!(p.sq[0].committed && p.sq[0].data_ready);
        assert!(!p.finished(), "the store has not drained");
    }
}

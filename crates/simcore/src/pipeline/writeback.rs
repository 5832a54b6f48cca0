//! Writeback: due completion events finish their uops (a load's first
//! completion moves it on to the memory stage), loads with data take
//! LSQ completion slots, and finished producers wake their consumers.

use super::{Pipeline, Stage};
use crate::regfile::Seq;

impl Pipeline<'_> {
    /// The cycle writeback next acts at: this one (`<= now`) while a
    /// load waits for an LSQ completion slot, else the next completion
    /// timer; `None` when nothing is in flight to complete.
    #[inline]
    pub(super) fn next_writeback(&self) -> Option<u64> {
        if self.completed_loads.is_empty() {
            self.done.next_time()
        } else {
            Some(self.now)
        }
    }

    #[inline]
    pub(super) fn writeback(&mut self) {
        // Completion events, both kinds in one drain (the uop's stage
        // says which): execution-port completions are `Issued`, memory
        // completions are `MemWait`. The woken/due lists are hoisted
        // scratch buffers (empty between cycles) so steady-state cycles
        // allocate nothing.
        let mut woken = std::mem::take(&mut self.scratch_woken);
        debug_assert!(woken.is_empty());
        let mut due = std::mem::take(&mut self.scratch_due);
        self.done.take_due(self.now, &mut due);
        for &(_, seq) in &due {
            let u = self.uop(seq);
            if u.stage == Stage::MemWait {
                // Memory completion: feeds the LSQ completion stage.
                self.uop_mut(seq).stage = Stage::WbWait;
                self.completed_loads.push_back(seq);
                continue;
            }
            debug_assert_eq!(u.stage, Stage::Issued);
            let op = u.op;
            if op.is_load() {
                self.uop_mut(seq).stage = Stage::PendingMem;
                self.pending_loads.push_back(seq);
            } else if op.is_store() {
                // Store executed: data+address ready; completes in ROB now,
                // memory write happens post-commit.
                let u = self.uop_mut(seq);
                u.stage = Stage::Done;
                let ord = u.sq_ord.expect("a dispatched store has its ordinal");
                let e = &mut self.sq[(ord - self.sq_popped) as usize];
                debug_assert_eq!(e.seq, seq, "ordinal names another store");
                e.data_ready = true;
            } else {
                self.finish_uop(seq, &mut woken);
            }
        }
        due.clear();
        self.scratch_due = due;

        // LSQ completion width: loads writing back per cycle.
        for _ in 0..self.params.lsq_completion_width {
            let Some(seq) = self.completed_loads.pop_front() else {
                break;
            };
            self.finish_uop(seq, &mut woken);
        }

        self.wake(&woken);
        woken.clear();
        self.scratch_woken = woken;
    }

    /// Mark `seq` done and its destination registers ready, collecting
    /// their waiters in `woken`.
    #[inline]
    fn finish_uop(&mut self, seq: Seq, woken: &mut Vec<Seq>) {
        let u = &mut self.window[seq];
        u.stage = Stage::Done;
        for d in &u.dests[..u.ndests as usize] {
            self.rename.complete(d.class, d.phys, woken);
        }
    }

    #[inline]
    fn wake(&mut self, woken: &[Seq]) {
        for &seq in woken {
            let u = self.uop_mut(seq);
            debug_assert!(u.srcs_remaining > 0);
            u.srcs_remaining -= 1;
            // A uop with outstanding sources is either still in the
            // rename buffer (counted ready at dispatch instead) or in
            // the RS, where resolving the last source makes it an issue
            // candidate.
            if u.srcs_remaining == 0 && u.stage == Stage::InRs {
                let class = u.op.port();
                self.push_ready(class, seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{access, machine};
    use super::*;
    use armdse_isa::instr::MemKind;
    use armdse_isa::op::OpClass;

    #[test]
    fn due_completions_finish_alus_and_move_loads_to_the_memory_stage() {
        let mut p = machine(0);
        let alu = p.place(OpClass::IntAlu, Stage::Issued, None);
        let load = p.place(
            OpClass::Load,
            Stage::Issued,
            Some(access(MemKind::Load, 0, 8)),
        );
        let store = p.place(
            OpClass::Store,
            Stage::Issued,
            Some(access(MemKind::Store, 64, 8)),
        );
        let late = p.place(OpClass::FpDiv, Stage::Issued, None);
        for seq in [alu, load, store] {
            p.done.push(1, seq);
        }
        p.done.push(12, late);
        assert_eq!(p.next_writeback(), Some(1));
        p.now = 1;
        p.writeback();
        assert_eq!(p.uop(alu).stage, Stage::Done);
        assert_eq!(p.uop(load).stage, Stage::PendingMem);
        assert_eq!(p.pending_loads, [load]);
        assert_eq!(p.uop(store).stage, Stage::Done);
        assert!(p.sq[0].data_ready, "an executed store's data is known");
        assert_eq!(p.uop(late).stage, Stage::Issued);
        assert_eq!(p.next_writeback(), Some(12));
    }

    #[test]
    fn loads_with_data_wait_for_lsq_completion_slots() {
        let mut p = machine(0);
        p.params.lsq_completion_width = 2;
        let loads: Vec<Seq> = (0..3)
            .map(|i| {
                let m = access(MemKind::Load, 64 * i, 8);
                p.place(OpClass::Load, Stage::MemWait, Some(m))
            })
            .collect();
        for &seq in &loads {
            p.done.push(1, seq);
        }
        p.now = 1;
        p.writeback();
        let stages: Vec<Stage> = loads.iter().map(|&s| p.uop(s).stage).collect();
        assert_eq!(stages, [Stage::Done, Stage::Done, Stage::WbWait]);
        assert_eq!(
            p.next_writeback(),
            Some(1),
            "the third load acts next cycle"
        );
    }
}

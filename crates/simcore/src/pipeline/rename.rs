//! Decode/rename: fetch-queue instructions into the rename buffer, up to
//! the frontend width per cycle, allocating physical destinations from
//! the four free lists.

use super::{Pipeline, RequestPlan, Stage, Uop};
use crate::params::RENAME_BUFFER_CAP;
use crate::regfile::RenamedDest;
use armdse_isa::reg::RegClass;

/// Why rename makes no progress this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RenameBlock {
    /// Rename buffer at capacity: rename stops before any accounting.
    BufferFull,
    /// Fetch queue empty: a fetch-starved stall while work remains.
    Starved,
    /// The given class's free list cannot cover the next instruction.
    FreeList(RegClass),
}

impl Pipeline<'_> {
    /// Why rename cannot take the fetch queue's front instruction this
    /// cycle (`None`: it can).
    #[inline]
    pub(super) fn rename_block(&self) -> Option<RenameBlock> {
        if self.renamed_len() >= RENAME_BUFFER_CAP {
            return Some(RenameBlock::BufferFull);
        }
        match self.fetch_q.front() {
            None => Some(RenameBlock::Starved),
            Some(slot) => {
                let t = &self.cursor.program().ops[slot.index].template;
                self.rename
                    .blocked_class(t.dests.as_slice())
                    .map(RenameBlock::FreeList)
            }
        }
    }

    /// Charge `cycles` cycles in which rename stopped on `block`. A
    /// free-list stall also arms the `rename_blocked` breadcrumb that
    /// the next cycle's attribution reads.
    #[inline]
    pub(super) fn charge_rename(&mut self, block: RenameBlock, cycles: u64) {
        match block {
            RenameBlock::BufferFull => {}
            RenameBlock::Starved => {
                if self.cursor.has_next() || !self.window.is_empty() {
                    self.stats.stalls.fetch_starved += cycles;
                }
            }
            RenameBlock::FreeList(class) => {
                *self.stats.stalls.rename_mut(class) += cycles;
                self.rename_blocked = true;
            }
        }
    }

    #[inline]
    pub(super) fn rename_stage(&mut self) {
        for _ in 0..self.params.frontend_width {
            if let Some(block) = self.rename_block() {
                self.charge_rename(block, 1);
                break;
            }
            let slot = self.fetch_q.pop_front().expect("rename_block saw a front");
            let program = self.cursor.program();
            let t = &program.ops[slot.index].template;
            let seq = self.window.next;
            if let Some(log) = &mut self.log {
                log.renamed(slot.instr(program));
            }

            // Resolve sources first (reads see the pre-rename mapping).
            let mut srcs_remaining = 0u8;
            for s in t.srcs.iter() {
                let (_, ready) = self.rename.resolve_src(s, seq);
                if !ready {
                    srcs_remaining += 1;
                }
            }
            // Rename destinations.
            let mut dests = [RenamedDest {
                class: RegClass::Gp,
                phys: 0,
                prev: 0,
            }; 2];
            let mut ndests = 0u8;
            for d in t.dests.iter() {
                dests[ndests as usize] = self.rename.rename_dest(d);
                ndests += 1;
            }

            // Request-issue plan for loads.
            let mem = slot.mem(program);
            let plan = match mem {
                Some(m) if t.op.is_load() => RequestPlan::new(&m, self.mem.line_bytes()),
                _ => RequestPlan::default(),
            };

            self.window.push(Uop {
                op: t.op,
                stage: Stage::Renamed,
                dests,
                ndests,
                srcs_remaining,
                mem,
                plan,
                mem_complete: 0,
                sq_ord: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::machine;
    use super::*;
    use crate::params::CoreParams;

    #[test]
    fn rename_moves_up_to_the_frontend_width() {
        let mut p = machine(10);
        p.fetch();
        assert_eq!(p.rename_block(), None);
        p.rename_stage();
        assert_eq!(
            p.renamed_len(),
            CoreParams::thunderx2().frontend_width as usize
        );
        assert!(p.window.iter().all(|u| u.stage == Stage::Renamed));
    }

    #[test]
    fn an_empty_fetch_queue_starves_rename_while_work_remains() {
        let mut p = machine(4);
        assert_eq!(p.rename_block(), Some(RenameBlock::Starved));
        p.rename_stage();
        assert_eq!(
            p.stats.stalls.fetch_starved, 1,
            "the program is not exhausted"
        );

        let mut done = machine(0);
        done.rename_stage();
        assert_eq!(done.stats.stalls.fetch_starved, 0, "nothing left to rename");
    }

    #[test]
    fn a_full_rename_buffer_blocks_without_a_charge() {
        let mut p = machine(40);
        p.fetch();
        p.fetch();
        for _ in 0..4 {
            p.rename_stage();
        }
        assert_eq!(p.renamed_len(), RENAME_BUFFER_CAP);
        assert_eq!(p.rename_block(), Some(RenameBlock::BufferFull));
        let before = p.stats.stalls;
        p.rename_stage();
        assert_eq!(p.stats.stalls, before);
        assert!(!p.rename_blocked);
    }

    #[test]
    fn an_empty_free_list_stalls_its_class_and_arms_the_breadcrumb() {
        // 34 GP registers: two above the 32 architectural ones.
        let mut p = machine(5);
        p.params.gp_regs = 34;
        p.rename = crate::regfile::RenameUnit::new([34, 128, 48, 32]);
        p.fetch();
        p.rename_stage();
        assert_eq!(p.renamed_len(), 2);
        assert_eq!(p.rename_block(), Some(RenameBlock::FreeList(RegClass::Gp)));
        assert_eq!(p.stats.stalls.rename_gp, 1);
        assert_eq!(p.stats.stalls.rename_fp, 0);
        assert!(p.rename_blocked);
    }
}

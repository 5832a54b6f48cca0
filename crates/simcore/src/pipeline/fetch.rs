//! Fetch: the trace cursor's next instructions into the fetch queue, one
//! aligned fetch block per cycle, or up to the frontend width while a
//! hot loop streams from the loop buffer.

use super::Pipeline;
use crate::params::FETCH_QUEUE_CAP;
use armdse_isa::INSTR_BYTES;

impl Pipeline<'_> {
    /// Whether fetch moves an instruction into the fetch queue this
    /// cycle: the program is not exhausted and the queue has room.
    #[inline]
    pub(super) fn fetch_ready(&self) -> bool {
        self.pending_fetch.is_some() && self.fetch_q.len() < FETCH_QUEUE_CAP
    }

    /// Fetch's accounting for `cycles` cycles in its current mode: each
    /// one the loop buffer streams counts, whether or not the fetch queue
    /// has room.
    #[inline]
    pub(super) fn count_loop_buffer(&mut self, cycles: u64) {
        if self.pending_fetch.is_some() && self.loop_mode.is_some() {
            self.stats.stalls.loop_buffer_cycles += cycles;
        }
    }

    #[inline]
    pub(super) fn fetch(&mut self) {
        let Some(next) = &self.pending_fetch else {
            return;
        };
        let in_loop = self.loop_mode.is_some();
        let budget = if in_loop {
            self.params.frontend_width as usize
        } else {
            // Instructions available in the aligned fetch-block window
            // containing the next PC.
            let fb = u64::from(self.params.fetch_block_bytes);
            let window_end = (next.pc & !(fb - 1)) + fb;
            ((window_end - next.pc) / INSTR_BYTES) as usize
        };
        self.count_loop_buffer(1);

        for _ in 0..budget {
            if !self.fetch_ready() {
                break;
            }
            let di = self.pending_fetch.take().expect("fetch_ready");
            self.pending_fetch = self.cursor.next_instr();
            let taken = di.branch.map(|b| b.taken).unwrap_or(false);
            let pc = di.pc;
            self.fetch_q.push_back(di);

            if let Some(b) = di.branch {
                if b.taken && b.target < pc {
                    let body_len = (pc - b.target) / INSTR_BYTES + 1;
                    if body_len <= u64::from(self.params.loop_buffer_size) {
                        if self.loop_candidate == Some(pc) {
                            self.loop_mode = Some((b.target, pc));
                        } else {
                            self.loop_candidate = Some(pc);
                        }
                    }
                } else if !b.taken
                    && (self.loop_candidate == Some(pc)
                        || self.loop_mode.map(|(_, bp)| bp) == Some(pc))
                {
                    // Loop exit: leave streaming mode.
                    self.loop_mode = None;
                    self.loop_candidate = None;
                }
            }

            // In block mode a taken branch ends the fetch group.
            if self.loop_mode.is_none() && taken {
                break;
            }
            // Fell out of the loop-buffer range: drop back to block fetch.
            if let (Some((lo, hi)), Some(next)) = (self.loop_mode, self.pending_fetch.as_ref()) {
                if next.pc < lo || next.pc > hi {
                    self.loop_mode = None;
                    self.loop_candidate = None;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::machine;

    #[test]
    fn block_mode_fetches_to_the_end_of_the_aligned_block() {
        // 32-byte blocks of 4-byte instructions, the program starting on
        // a block boundary: eight per cycle.
        let mut p = machine(20);
        assert!(p.fetch_ready());
        p.fetch();
        assert_eq!(p.fetch_q.len(), 8);
        p.fetch();
        assert_eq!(p.fetch_q.len(), 16);
        assert_eq!(p.stats.stalls.loop_buffer_cycles, 0);
    }

    #[test]
    fn a_full_fetch_queue_stops_fetch() {
        let mut p = machine(100);
        while p.fetch_ready() {
            p.fetch();
        }
        assert_eq!(p.fetch_q.len(), crate::params::FETCH_QUEUE_CAP);
        assert!(p.pending_fetch.is_some(), "the program is not exhausted");
        p.fetch();
        assert_eq!(p.fetch_q.len(), crate::params::FETCH_QUEUE_CAP);
    }

    #[test]
    fn an_exhausted_program_is_never_ready() {
        let mut p = machine(3);
        p.fetch();
        assert_eq!(p.fetch_q.len(), 3);
        assert!(!p.fetch_ready());
    }
}

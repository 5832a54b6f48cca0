//! Lazy trace cursor over a lowered program.
//!
//! [`TraceCursor`] walks a [`Program`] producing the dynamic (retired)
//! instruction stream one instruction at a time, without materialising the
//! unrolled trace. Control flow is resolved with a per-depth iteration
//! index array (see `program` module docs), and affine address expressions
//! are evaluated against that array.

use crate::instr::{BranchInfo, DynInstr, MemRef};
use crate::kir::MAX_LOOP_DEPTH;
use crate::program::{OpRole, Program};

/// An iterator-like cursor producing the dynamic instruction stream.
#[derive(Debug, Clone)]
pub struct TraceCursor<'p> {
    program: &'p Program,
    /// Next static op index to retire, or `ops.len()` when finished.
    next: usize,
    /// Current iteration index per loop depth.
    idx: [u64; MAX_LOOP_DEPTH],
    /// Dynamic instructions produced so far.
    produced: u64,
}

impl<'p> TraceCursor<'p> {
    /// Start a cursor at the program's entry.
    pub fn new(program: &'p Program) -> TraceCursor<'p> {
        TraceCursor {
            program,
            next: 0,
            idx: [0; MAX_LOOP_DEPTH],
            produced: 0,
        }
    }

    /// Number of dynamic instructions produced so far.
    #[cfg(test)]
    fn produced(&self) -> u64 {
        self.produced
    }

    /// Whether the stream is exhausted.
    #[inline]
    pub(crate) fn finished(&self) -> bool {
        self.next >= self.program.ops.len()
    }

    /// Produce the next dynamic instruction, or `None` at program end.
    pub fn next_instr(&mut self) -> Option<DynInstr> {
        if self.finished() {
            return None;
        }
        let i = self.next;
        let sop = &self.program.ops[i];
        let t = &sop.template;
        let pc = self.program.pc_of(i);

        let mem = t.mem.map(|m| MemRef {
            addr: m.expr.eval(&self.idx[..]),
            bytes: m.bytes,
            kind: m.kind,
            pattern: m.pattern,
        });

        let branch = match sop.role {
            OpRole::LoopBranch(id) => {
                let lm = self.program.loops[id as usize];
                let d = lm.depth as usize;
                let taken = self.idx[d] + 1 < lm.trip;
                let target = self.program.pc_of(lm.header as usize);
                if taken {
                    self.idx[d] += 1;
                    self.next = lm.header as usize;
                } else {
                    self.idx[d] = 0;
                    self.next = i + 1;
                }
                Some(BranchInfo { taken, target })
            }
            _ => {
                self.next = i + 1;
                // Explicit (non-loop) branches in kernel bodies fall through.
                if t.op.is_branch() {
                    Some(BranchInfo {
                        taken: false,
                        target: pc + 4,
                    })
                } else {
                    None
                }
            }
        };

        self.produced += 1;
        Some(DynInstr {
            pc,
            op: t.op,
            dests: t.dests,
            srcs: t.srcs,
            mem,
            branch,
        })
    }
}

impl<'p> Iterator for TraceCursor<'p> {
    type Item = DynInstr;
    fn next(&mut self) -> Option<DynInstr> {
        self.next_instr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{InstrTemplate, MemKind};
    use crate::kir::{AddrExpr, Kernel, Stmt};
    use crate::op::OpClass;
    use crate::program::CODE_BASE;
    use crate::reg::Reg;

    fn loop_kernel(trip: u64) -> Program {
        let body = vec![Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            Reg::gp(2),
            &[Reg::gp(3)],
            AddrExpr::linear(0x1000, 0, 8),
            8,
        ))];
        Program::lower(&Kernel::new("k", vec![Stmt::repeat(trip, body)]))
    }

    #[test]
    fn trace_length_matches_dynamic_len() {
        let p = loop_kernel(7);
        let n = TraceCursor::new(&p).count() as u64;
        assert_eq!(n, p.dynamic_len());
        assert_eq!(n, 7 * 3); // load + add + branch per iteration
    }

    #[test]
    fn addresses_advance_with_iteration() {
        let p = loop_kernel(3);
        let addrs: Vec<u64> = TraceCursor::new(&p)
            .filter_map(|d| d.mem.map(|m| m.addr))
            .collect();
        assert_eq!(addrs, vec![0x1000, 0x1008, 0x1010]);
    }

    #[test]
    fn loop_branch_taken_then_not_taken() {
        let p = loop_kernel(2);
        let branches: Vec<bool> = TraceCursor::new(&p)
            .filter_map(|d| d.branch.map(|b| b.taken))
            .collect();
        assert_eq!(branches, vec![true, false]);
    }

    #[test]
    fn branch_target_is_loop_header() {
        let p = loop_kernel(2);
        let tgt = TraceCursor::new(&p)
            .filter_map(|d| d.branch.map(|b| b.target))
            .next()
            .unwrap();
        assert_eq!(tgt, CODE_BASE);
    }

    #[test]
    fn nested_loop_addresses_2d() {
        // for j in 0..2 { for i in 0..3 { load base + 64*j + 8*i } }
        let inner = vec![Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            Reg::gp(2),
            &[Reg::gp(3)],
            AddrExpr::bilinear(0x1000, 0, 64, 1, 8),
            8,
        ))];
        let k = Kernel::new("n", vec![Stmt::repeat(2, vec![Stmt::repeat(3, inner)])]);
        let p = Program::lower(&k);
        let addrs: Vec<u64> = TraceCursor::new(&p)
            .filter_map(|d| d.mem.map(|m| m.addr))
            .collect();
        assert_eq!(addrs, vec![0x1000, 0x1008, 0x1010, 0x1040, 0x1048, 0x1050]);
    }

    #[test]
    fn inner_loop_reruns_in_outer_iterations() {
        let inner = vec![Stmt::Instr(InstrTemplate::compute(
            OpClass::FpAdd,
            &[Reg::fp(0)],
            &[],
        ))];
        let k = Kernel::new("r", vec![Stmt::repeat(4, vec![Stmt::repeat(5, inner)])]);
        let p = Program::lower(&k);
        let fp_count = TraceCursor::new(&p)
            .filter(|d| d.op == OpClass::FpAdd)
            .count();
        assert_eq!(fp_count, 20);
        assert_eq!(TraceCursor::new(&p).count() as u64, p.dynamic_len());
    }

    #[test]
    fn store_memref_kind() {
        let body = vec![Stmt::Instr(InstrTemplate::store(
            OpClass::VecStore,
            &[Reg::fp(1), Reg::gp(3)],
            AddrExpr::linear(0x2000, 0, 32),
            32,
        ))];
        let p = Program::lower(&Kernel::new("s", vec![Stmt::repeat(2, body)]));
        let kinds: Vec<MemKind> = TraceCursor::new(&p)
            .filter_map(|d| d.mem.map(|m| m.kind))
            .collect();
        assert_eq!(kinds, vec![MemKind::Store, MemKind::Store]);
    }

    #[test]
    fn cursor_exhausts_cleanly() {
        let p = loop_kernel(1);
        let mut c = TraceCursor::new(&p);
        while c.next_instr().is_some() {}
        assert!(c.finished());
        assert!(c.next_instr().is_none());
        assert_eq!(c.produced(), p.dynamic_len());
    }
}

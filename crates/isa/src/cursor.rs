//! Lazy trace cursor over a lowered program.
//!
//! [`TraceCursor`] walks a [`Program`] producing the dynamic (retired)
//! instruction stream one instruction at a time, without materialising the
//! unrolled trace. Control flow is resolved with a per-depth iteration
//! index array (see `program` module docs), and affine address expressions
//! are evaluated against that array. The walk yields compact
//! [`FetchSlot`]s, which [`TraceCursor::next_instr`] expands.

use crate::instr::{BranchInfo, DynInstr, MemRef};
use crate::kir::MAX_LOOP_DEPTH;
use crate::program::{OpRole, Program, CODE_BASE};
use crate::INSTR_BYTES;

/// An iterator-like cursor producing the dynamic instruction stream.
#[derive(Debug, Clone)]
pub struct TraceCursor<'p> {
    program: &'p Program,
    /// Next static op index to retire, or `ops.len()` when finished.
    next: usize,
    /// Current iteration index per loop depth.
    idx: [u64; MAX_LOOP_DEPTH],
}

impl<'p> TraceCursor<'p> {
    /// Start a cursor at the program's entry.
    pub fn new(program: &'p Program) -> TraceCursor<'p> {
        TraceCursor {
            program,
            next: 0,
            idx: [0; MAX_LOOP_DEPTH],
        }
    }

    /// Whether another dynamic instruction follows.
    #[inline]
    pub fn has_next(&self) -> bool {
        self.next < self.program.ops.len()
    }

    /// The program counter of the next dynamic instruction, or `None` at
    /// program end.
    #[inline]
    pub fn peek_pc(&self) -> Option<u64> {
        self.has_next().then(|| self.program.pc_of(self.next))
    }

    /// The program being walked.
    #[inline]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Produce the next dynamic instruction as a [`FetchSlot`], or `None`
    /// at program end.
    #[inline]
    pub fn next_slot(&mut self) -> Option<FetchSlot> {
        if !self.has_next() {
            return None;
        }
        let i = self.next;
        let sop = &self.program.ops[i];
        let addr = sop.template.mem.map_or(0, |m| m.expr.eval(&self.idx[..]));

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
                sop.template.op.is_branch().then(|| BranchInfo {
                    taken: false,
                    target: self.program.pc_of(i) + 4,
                })
            }
        };

        Some(FetchSlot {
            index: i,
            addr,
            branch,
        })
    }

    /// Produce the next dynamic instruction, or `None` at program end.
    pub fn next_instr(&mut self) -> Option<DynInstr> {
        let program = self.program;
        self.next_slot().map(|s| s.instr(program))
    }
}

/// One dynamic instruction in 32 bytes: its static op and what the walk
/// resolves; everything else is the op's template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchSlot {
    /// Index of the static op in [`Program::ops`].
    pub index: usize,
    /// Resolved memory address (0 for an op without memory access).
    pub addr: u64,
    /// For branches: whether this instance is taken, and its target PC.
    pub branch: Option<BranchInfo>,
}

impl FetchSlot {
    /// The static op's program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        CODE_BASE + self.index as u64 * INSTR_BYTES
    }

    /// The resolved memory reference, its shape read from `program`,
    /// the program this slot was walked from.
    #[inline]
    pub fn mem(&self, program: &Program) -> Option<MemRef> {
        let m = program.ops[self.index].template.mem?;
        Some(MemRef {
            addr: self.addr,
            bytes: m.bytes,
            kind: m.kind,
            pattern: m.pattern,
        })
    }

    /// The full dynamic instruction, operands read from `program`.
    pub fn instr(&self, program: &Program) -> DynInstr {
        let t = &program.ops[self.index].template;
        DynInstr {
            pc: self.pc(),
            op: t.op,
            dests: t.dests,
            srcs: t.srcs,
            mem: self.mem(program),
            branch: self.branch,
        }
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
    fn slots_name_their_op_and_peek_pc_names_the_next() {
        let p = loop_kernel(2);
        let mut c = TraceCursor::new(&p);
        assert!(std::ptr::eq(c.program(), &p));
        let mut pcs = Vec::new();
        while let Some(pc) = c.peek_pc() {
            assert!(c.has_next());
            let slot = c.next_slot().expect("peeked");
            assert_eq!(slot.pc(), pc);
            assert_eq!(slot.instr(&p).op, p.ops[slot.index].template.op);
            pcs.push(pc);
        }
        assert!(!c.has_next() && c.next_slot().is_none());
        let walked: Vec<u64> = TraceCursor::new(&p).map(|d| d.pc).collect();
        assert_eq!(pcs, walked);
    }

    #[test]
    fn cursor_exhausts_cleanly() {
        let p = loop_kernel(1);
        let mut c = TraceCursor::new(&p);
        let mut produced = 0;
        while c.next_instr().is_some() {
            produced += 1;
        }
        assert!(!c.has_next());
        assert!(c.next_instr().is_none());
        assert_eq!(produced, p.dynamic_len());
    }
}

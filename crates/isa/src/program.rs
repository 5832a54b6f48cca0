//! Lowered program representation.
//!
//! [`Program::lower`] flattens a [`Kernel`]'s loop nest into a linear array
//! of static operations with byte program counters, inserting the
//! loop-control overhead a real counted/VLA loop retires each iteration:
//! one induction-increment ALU op and one compare-and-branch. Because the
//! kernel IR is structured (properly nested counted loops), dynamic control
//! flow needs no interpreter stack: a per-depth iteration-index array fully
//! determines every branch outcome and every affine address.

use crate::instr::InstrTemplate;
use crate::kir::{Kernel, Stmt, MAX_LOOP_DEPTH};
use crate::op::OpClass;
use crate::reg::Reg;
use crate::{OpSummary, INSTR_BYTES};

/// Base byte address of the code segment (arbitrary; PCs are
/// `CODE_BASE + 4*index`).
pub const CODE_BASE: u64 = 0x0010_0000;

/// GP register reserved for the depth-`d` induction variable.
///
/// Kernels must not use `x24..x29` so lowering-inserted loop control never
/// aliases kernel registers.
#[inline]
pub(crate) fn induction_reg(depth: usize) -> Reg {
    debug_assert!(depth < MAX_LOOP_DEPTH);
    Reg::gp(24 + depth as u8)
}

/// Role of a flattened static operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpRole {
    /// An instruction template from the kernel body.
    Body,
    /// Lowering-inserted induction increment for the loop with this id.
    LoopAdd(u32),
    /// Lowering-inserted backward compare-and-branch for the loop with
    /// this id.
    LoopBranch(u32),
}

/// A flattened static instruction: template plus its role and PC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticInstr {
    /// Instruction template (operands, op class, memory behaviour).
    pub template: InstrTemplate,
    /// Body instruction or lowering-inserted loop control.
    pub(crate) role: OpRole,
}

/// Metadata for one lowered loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopMeta {
    /// Index (into [`Program::ops`]) of the first instruction of the body.
    pub header: u32,
    /// Index of the loop's backward branch.
    pub branch: u32,
    /// Trip count (≥ 1).
    pub trip: u64,
    /// Nesting depth (0 = outermost).
    pub depth: u8,
}

/// A lowered, executable program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Kernel name this program was lowered from.
    pub name: String,
    /// Flattened static instructions.
    pub ops: Vec<StaticInstr>,
    /// Loop table indexed by the ids in `OpRole`.
    pub loops: Vec<LoopMeta>,
}

impl Program {
    /// Lower a kernel into a flat program.
    ///
    /// Zero-trip loops are dropped (they retire nothing). Panics if the
    /// nest exceeds [`MAX_LOOP_DEPTH`].
    pub fn lower(kernel: &Kernel) -> Program {
        assert!(
            kernel.max_depth() <= MAX_LOOP_DEPTH,
            "kernel '{}' exceeds MAX_LOOP_DEPTH",
            kernel.name
        );
        let mut p = Program {
            name: kernel.name.clone(),
            ops: Vec::new(),
            loops: Vec::new(),
        };
        lower_stmts(&kernel.body, 0, &mut p);
        p
    }

    /// Byte PC of the op at `index`.
    #[inline]
    pub(crate) fn pc_of(&self, index: usize) -> u64 {
        CODE_BASE + index as u64 * INSTR_BYTES
    }

    /// Number of static ops (including inserted loop control).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.ops.len()
    }

    /// Total dynamic (retired) instruction count, computed analytically:
    /// the [`OpSummary::total`] of [`OpSummary::of`].
    pub fn dynamic_len(&self) -> u64 {
        OpSummary::of(self).total()
    }
}

fn lower_stmts(stmts: &[Stmt], depth: usize, p: &mut Program) {
    for s in stmts {
        match s {
            Stmt::Instr(t) => {
                p.ops.push(StaticInstr {
                    template: *t,
                    role: OpRole::Body,
                });
            }
            Stmt::Loop { trip, body } => {
                if *trip == 0 {
                    continue;
                }
                assert!(depth < MAX_LOOP_DEPTH, "loop nest too deep");
                let header = p.ops.len() as u32;
                lower_stmts(body, depth + 1, p);
                let id = p.loops.len() as u32;
                let ind = induction_reg(depth);
                // Flag-setting induction increment (`adds`/`subs`): reads
                // and writes the induction GP reg and writes NZCV, so the
                // condition-register file sees real rename pressure.
                p.ops.push(StaticInstr {
                    template: InstrTemplate::compute(OpClass::IntAlu, &[ind, Reg::nzcv()], &[ind]),
                    role: OpRole::LoopAdd(id),
                });
                // Conditional branch on the flags.
                p.ops.push(StaticInstr {
                    template: InstrTemplate::branch(&[Reg::nzcv()]),
                    role: OpRole::LoopBranch(id),
                });
                let branch = (p.ops.len() - 1) as u32;
                p.loops.push(LoopMeta {
                    header,
                    branch,
                    trip: *trip,
                    depth: depth as u8,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kir::AddrExpr;

    fn alu() -> Stmt {
        Stmt::Instr(InstrTemplate::compute(
            OpClass::IntAlu,
            &[Reg::gp(0)],
            &[Reg::gp(1)],
        ))
    }

    fn load(depth: usize) -> Stmt {
        Stmt::Instr(InstrTemplate::load(
            OpClass::Load,
            Reg::gp(2),
            &[Reg::gp(3)],
            AddrExpr::linear(0x1000, depth, 8),
            8,
        ))
    }

    #[test]
    fn straight_line_lowering() {
        let k = Kernel::new("sl", vec![alu(), alu(), alu()]);
        let p = Program::lower(&k);
        assert_eq!(p.len(), 3);
        assert!(p.loops.is_empty());
        assert_eq!(p.dynamic_len(), 3);
    }

    #[test]
    fn single_loop_adds_control_ops() {
        let k = Kernel::new("l", vec![Stmt::repeat(10, vec![alu(), load(0)])]);
        let p = Program::lower(&k);
        // 2 body + add + branch
        assert_eq!(p.len(), 4);
        assert_eq!(p.loops.len(), 1);
        assert_eq!(p.loops[0].trip, 10);
        assert_eq!(p.loops[0].header, 0);
        assert_eq!(p.loops[0].branch, 3);
        assert_eq!(p.dynamic_len(), 40);
    }

    #[test]
    fn nested_loops_multiply_dynamic_len() {
        let k = Kernel::new(
            "n",
            vec![
                alu(),
                Stmt::repeat(3, vec![alu(), Stmt::repeat(5, vec![load(1)])]),
            ],
        );
        let p = Program::lower(&k);
        // ops: alu | alu [load add br] add br
        assert_eq!(p.len(), 7);
        assert_eq!(p.loops.len(), 2);
        // inner loop registered first
        assert_eq!(p.loops[0].trip, 5);
        assert_eq!(p.loops[0].depth, 1);
        assert_eq!(p.loops[1].trip, 3);
        assert_eq!(p.loops[1].depth, 0);
        // dynamic: 1 + 3*(1 + 5*3 + 2) = 1 + 3*18 = 55
        assert_eq!(p.dynamic_len(), 55);
    }

    #[test]
    fn zero_trip_loop_dropped() {
        let k = Kernel::new("z", vec![Stmt::repeat(0, vec![alu()]), alu()]);
        let p = Program::lower(&k);
        assert_eq!(p.len(), 1);
        assert!(p.loops.is_empty());
    }

    #[test]
    fn pcs_are_word_aligned_and_sequential() {
        let k = Kernel::new("p", vec![alu(), alu()]);
        let p = Program::lower(&k);
        assert_eq!(p.pc_of(0), CODE_BASE);
        assert_eq!(p.pc_of(1), CODE_BASE + 4);
    }

    #[test]
    fn induction_regs_distinct_per_depth() {
        let a = induction_reg(0);
        let b = induction_reg(1);
        assert_ne!(a, b);
    }
}
